//! Index-returning top-1 selection over f32 scores: the classifier's
//! predicted class. (The semantic-cache lookup's best and second-best
//! classes, paper Eq. (2), come from the fused [`crate::matrix::score_top2`].)

/// Index of the maximum value (first on ties). `None` for empty input.
pub fn top1(values: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top1_finds_max() {
        assert_eq!(top1(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(top1(&[]), None);
        assert_eq!(top1(&[2.0, 2.0]), Some(0)); // first wins ties
    }
}
