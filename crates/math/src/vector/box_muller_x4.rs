//! Box–Muller on four f64 lanes (AVX2 + FMA), bit-identical to the scalar
//! [`super::box_muller`] through a rounding test at the `f32` it returns.
//!
//! Compiled on every x86_64 build. Dispatch is one cached `avx2 && fma`
//! probe; CPUs without them, and other targets, run the scalar block.
//!
//! ## What a lane computes
//!
//! `v = fl(√(−2·ln u1) · cos x)`, where `x` is the scalar expression's own
//! `2.0 * PI * u2` (`2π` is exact, one rounding in the product) and the
//! `−2·`, the square root and the product are the same correctly rounded
//! f64 operations as the scalar path. Only `ln` and `cos` differ: they are
//! fdlibm's polynomials (Sun Microsystems, 1993), not glibc's.
//!
//! * `ln`: `u1 = 2^k·(1+f)` with `f ∈ [√½−1, √2−1)`, `s = f/(2+f)`,
//!   `ln(1+f) = f − (hfsq − s·(hfsq + R))` with `hfsq = f²/2` and `R` the
//!   `Lg1…Lg7` polynomial in `s²`, plus `k·ln2` in two parts. `u1` is
//!   drawn from `[MIN_POSITIVE, 1)`, so it is never subnormal.
//! * `cos`: `k = round(x·2/π) ∈ 0..=4`, then Cody–Waite: `x − k·pio2_1` is
//!   exact (`pio2_1` has 33 significant bits) and `y + yt = x − k·pio2_1 −
//!   k·pio2_1t` carries the rounding error of `y` as a tail. fdlibm's
//!   `__kernel_sin` and `__kernel_cos` run on `(y, yt)`, and `k mod 4`
//!   picks `cos y`, `−sin y`, `−cos y` or `sin y`.
//!
//! Padding lanes of a partial group get `u1 = 0.5, u2 = 0`; their results
//! are thrown away, and no uniforms are drawn for them.
//!
//! ## Rounding test and error budget
//!
//! A lane keeps `v as f32` only when `(v − b) as f32 == (v + b) as f32`,
//! compared as bits, with `b = |v|·2⁻⁴⁶ + √(−2 ln u1)·1e-24`; any other
//! lane is recomputed by the scalar `box_muller`. A kept lane is exact as
//! long as glibc's own f64 result `g` lies in `[v − b, v + b]`: rounding
//! to f32 is monotone, so `g as f32` then equals both ends, and they equal
//! `v as f32`. With `ε = 2⁻⁵³` (one f64 ulp is at most `2ε` relative) and
//! `r = √(−2 ln u1)`, `|v − g|` is bounded by these parts, relative to
//! `|v|` unless marked absolute:
//!
//! * `ln`: this kernel < 1 ulp (fdlibm's design; the largest error
//!   against glibc measured over 10⁶ inputs is 1 ulp) and glibc ≤ 1 ulp
//!   (its published maximum for x86_64 `log`): 4ε in `ln u1`, halved by
//!   the square root: **2ε**.
//! * The square root's rounding on each side: **2ε**.
//! * `cos`, away from its zeros: this kernel < 1 ulp (fdlibm; 1 ulp
//!   measured against glibc) and glibc ≤ 1 ulp (its published maximum for
//!   x86_64 `cos`): **4ε**.
//! * `cos` near its zeros, absolute: the reduction's
//!   `k·(π/2 − pio2_1 − pio2_1t)` with `k ≤ 4` is at most 1.41e-26, times
//!   `r` (glibc's 1-ulp bound already covers its own reduction).
//! * The product's rounding on each side: **2ε**.
//! * The test's own roundings (`b`, `v ± b`): **2ε** of the margin.
//!
//! The relative parts sum to 12ε against a margin of `2⁻⁴⁶ = 128ε`
//! (64 to 128 ulps of `v`): 10.7× over. The absolute part is
//! `1.41e-26·r` against `1e-24·r`: 71× over. Where `cos x` is tiny
//! (`u2 = 0.25` or `0.75`: `cos(fl(π/2)) ≈ 6e-17`) the absolute term
//! widens the interval to ~1.6e-8 of `v`, a quarter to a half of an f32
//! spacing, so many such lanes fall back.
//! Over 10⁸ pairs of the `SmallRng` stream 37 lanes fell back
//! (3.7 × 10⁻⁷); the `#[ignore]`d sweep below prints the count.
//!
//! FMA is used freely here, unlike in `crate::simd`, whose rule 1 forbids
//! it: identity comes from the rounding test, not from repeating a scalar
//! operation sequence, so fusing or reordering operations only moves `v`
//! inside the budget above. Do not "fix" it to match `simd.rs`.

use std::arch::x86_64::*;
use std::f64::consts::PI;

use super::box_muller;
use crate::cpu::Probe;

static AVX2_FMA: Probe = Probe::new(|| {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
});

/// True iff the running CPU has AVX2 and FMA (probed once, then cached).
#[inline]
pub(super) fn enabled() -> bool {
    AVX2_FMA.enabled()
}

/// `box_muller(u1, u2)` for every pair of `u`, written to `out`, four
/// pairs at a time, with each lane that fails the rounding test
/// recomputed by the scalar `box_muller`.
///
/// # Panics
/// Panics if `u` and `out` differ in length.
#[target_feature(enable = "avx2,fma")]
pub(super) fn block(u: &[(f64, f64)], out: &mut [f32]) {
    assert_eq!(u.len(), out.len(), "box_muller block: length mismatch");
    for (pairs, out) in u.chunks(4).zip(out.chunks_mut(4)) {
        let mut u1 = [0.5; 4];
        let mut u2 = [0.0; 4];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            u1[i] = a;
            u2[i] = b;
        }
        let (v, kept) = lanes(&u1, &u2);
        for (i, (x, &(a, b))) in out.iter_mut().zip(pairs).enumerate() {
            *x = if kept & (1 << i) != 0 {
                v[i]
            } else {
                box_muller(a, b)
            };
        }
    }
}

/// Four Box–Muller lanes: `v as f32` per lane, and a bit mask of the
/// lanes whose rounding test passed (bit `i` for lane `i`).
#[inline]
#[target_feature(enable = "avx2,fma")]
fn lanes(u1: &[f64; 4], u2: &[f64; 4]) -> ([f32; 4], u32) {
    // SAFETY: each array is four readable f64s, exactly what an unaligned
    // 256-bit load reads.
    let (u1, u2) = unsafe { (_mm256_loadu_pd(u1.as_ptr()), _mm256_loadu_pd(u2.as_ptr())) };
    let x = _mm256_mul_pd(_mm256_set1_pd(2.0 * PI), u2);
    let r = _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), ln(u1)));
    let v = _mm256_mul_pd(r, cos(x));

    let abs_v = _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
    let b = _mm256_fmadd_pd(
        abs_v,
        _mm256_set1_pd(MARGIN),
        _mm256_mul_pd(r, _mm256_set1_pd(ABS_MARGIN)),
    );
    let lo = _mm_castps_si128(_mm256_cvtpd_ps(_mm256_sub_pd(v, b)));
    let hi = _mm_castps_si128(_mm256_cvtpd_ps(_mm256_add_pd(v, b)));
    let kept = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, hi))) as u32;

    let mut out = [0.0f32; 4];
    // SAFETY: `out` is four writable f32s, exactly what an unaligned
    // 128-bit store writes.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), _mm256_cvtpd_ps(v)) };
    (out, kept)
}

/// Relative half-width of the rounding test: `2⁻⁴⁶ = 128ε`.
const MARGIN: f64 = 1.0 / (1u64 << 46) as f64;
/// Absolute half-width per unit of `r`, covering the `cos` reduction.
const ABS_MARGIN: f64 = 1e-24;

// fdlibm's constants, by their bit patterns (e_log.c, k_sin.c, k_cos.c,
// e_rem_pio2.c).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

/// `2^52` as f64: adding it to an integral value below `2^52` leaves that
/// integer in the low mantissa bits.
const TWO52: f64 = 4_503_599_627_370_496.0;

/// fdlibm's `log` for positive normal `x`, without its special cases.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn ln(x: __m256d) -> __m256d {
    let bits = _mm256_castpd_si256(x);
    let mant = _mm256_and_si256(bits, _mm256_set1_epi64x(0x000f_ffff_ffff_ffff));
    // Bit 52 is set iff the mantissa is at least √2's (0x6a09e… in the
    // high word); those inputs are halved so that 1 + f < √2.
    let i = _mm256_and_si256(
        _mm256_add_epi64(mant, _mm256_set1_epi64x(0x95f64 << 32)),
        _mm256_set1_epi64x(1 << 52),
    );
    let m = _mm256_castsi256_pd(_mm256_or_si256(
        mant,
        _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff0_0000 << 32)),
    ));
    // k = biased exponent + the halving carry − 1023, converted exactly.
    let e = _mm256_add_epi64(_mm256_srli_epi64(bits, 52), _mm256_srli_epi64(i, 52));
    let dk = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(
            e,
            _mm256_castpd_si256(_mm256_set1_pd(TWO52)),
        )),
        _mm256_set1_pd(TWO52 + 1023.0),
    );

    let one = _mm256_set1_pd(1.0);
    let f = _mm256_sub_pd(m, one);
    let s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
    let z = _mm256_mul_pd(s, s);
    let w = _mm256_mul_pd(z, z);
    let t1 = _mm256_mul_pd(
        w,
        _mm256_fmadd_pd(
            w,
            _mm256_fmadd_pd(w, _mm256_set1_pd(LG6), _mm256_set1_pd(LG4)),
            _mm256_set1_pd(LG2),
        ),
    );
    let t2 = _mm256_mul_pd(
        z,
        _mm256_fmadd_pd(
            w,
            _mm256_fmadd_pd(
                w,
                _mm256_fmadd_pd(w, _mm256_set1_pd(LG7), _mm256_set1_pd(LG5)),
                _mm256_set1_pd(LG3),
            ),
            _mm256_set1_pd(LG1),
        ),
    );
    let r = _mm256_add_pd(t2, t1);
    let hfsq = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(0.5), f), f);
    // k·ln2_hi − ((hfsq − (s·(hfsq + R) + k·ln2_lo)) − f)
    let tail = _mm256_fmadd_pd(
        s,
        _mm256_add_pd(hfsq, r),
        _mm256_mul_pd(dk, _mm256_set1_pd(LN2_LO)),
    );
    let inner = _mm256_sub_pd(_mm256_sub_pd(hfsq, tail), f);
    _mm256_fmsub_pd(dk, _mm256_set1_pd(LN2_HI), inner)
}

/// The first 33 bits of π/2, and π/2 minus them rounded to f64.
const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);

const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);

const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// `cos x` for `x ∈ [0, 2π)`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn cos(x: __m256d) -> __m256d {
    let k = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(_mm256_mul_pd(
        x,
        _mm256_set1_pd(std::f64::consts::FRAC_2_PI),
    ));
    let z = _mm256_fnmadd_pd(k, _mm256_set1_pd(PIO2_1), x);
    let y = _mm256_fnmadd_pd(k, _mm256_set1_pd(PIO2_1T), z);
    let yt = _mm256_fnmadd_pd(k, _mm256_set1_pd(PIO2_1T), _mm256_sub_pd(z, y));

    let zz = _mm256_mul_pd(y, y);
    let sin = kernel_sin(y, yt, zz);
    let cos = kernel_cos(y, yt, zz);

    // k's integer bits, then: odd k takes the sine, and k mod 4 ∈ {1, 2}
    // (bit 1 of k + 1) negates.
    let kb = _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(TWO52)));
    let odd = _mm256_castsi256_pd(_mm256_slli_epi64(kb, 63));
    let neg = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_srli_epi64(_mm256_add_epi64(kb, _mm256_set1_epi64x(1)), 1),
        63,
    ));
    _mm256_xor_pd(_mm256_blendv_pd(cos, sin, odd), neg)
}

/// fdlibm's `__kernel_sin(y, yt, 1)` for `|y + yt| ≲ π/4`; `zz = y²`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn kernel_sin(y: __m256d, yt: __m256d, zz: __m256d) -> __m256d {
    let w = _mm256_mul_pd(zz, zz);
    let r = _mm256_fmadd_pd(
        _mm256_mul_pd(zz, w),
        _mm256_fmadd_pd(zz, _mm256_set1_pd(S6), _mm256_set1_pd(S5)),
        _mm256_fmadd_pd(
            zz,
            _mm256_fmadd_pd(zz, _mm256_set1_pd(S4), _mm256_set1_pd(S3)),
            _mm256_set1_pd(S2),
        ),
    );
    let v = _mm256_mul_pd(zz, y);
    // y − ((zz·(yt/2 − v·r) − yt) − v·S1)
    let inner = _mm256_fnmadd_pd(v, r, _mm256_mul_pd(_mm256_set1_pd(0.5), yt));
    let inner = _mm256_fmsub_pd(zz, inner, yt);
    let inner = _mm256_fnmadd_pd(v, _mm256_set1_pd(S1), inner);
    _mm256_sub_pd(y, inner)
}

/// fdlibm's `__kernel_cos(y, yt)` for `|y + yt| ≲ π/4`; `zz = y²`.
#[inline]
#[target_feature(enable = "avx2,fma")]
fn kernel_cos(y: __m256d, yt: __m256d, zz: __m256d) -> __m256d {
    let w = _mm256_mul_pd(zz, zz);
    let r = _mm256_fmadd_pd(
        _mm256_mul_pd(w, w),
        _mm256_fmadd_pd(
            zz,
            _mm256_fmadd_pd(zz, _mm256_set1_pd(C6), _mm256_set1_pd(C5)),
            _mm256_set1_pd(C4),
        ),
        _mm256_mul_pd(
            zz,
            _mm256_fmadd_pd(
                zz,
                _mm256_fmadd_pd(zz, _mm256_set1_pd(C3), _mm256_set1_pd(C2)),
                _mm256_set1_pd(C1),
            ),
        ),
    );
    let one = _mm256_set1_pd(1.0);
    let hz = _mm256_mul_pd(_mm256_set1_pd(0.5), zz);
    let w = _mm256_sub_pd(one, hz);
    // w + (((1 − w) − hz) + (zz·r − y·yt))
    let tail = _mm256_fmsub_pd(zz, r, _mm256_mul_pd(y, yt));
    _mm256_add_pd(
        w,
        _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(one, w), hz), tail),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::uniform_pair;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Runs `f` when the CPU can run the lanes; there is nothing to test
    /// on one that cannot (the scalar block is tested in `vector`).
    fn with_lanes(f: impl FnOnce()) {
        if enabled() {
            f();
        } else {
            eprintln!("skipped: the CPU lacks AVX2 or FMA");
        }
    }

    /// [`lanes`], callable from a test.
    fn run_lanes(u1: &[f64; 4], u2: &[f64; 4]) -> ([f32; 4], u32) {
        assert!(enabled());
        // SAFETY: `enabled` just verified AVX2 and FMA.
        unsafe { lanes(u1, u2) }
    }

    /// The lane `ln` of `a` and `cos` of `x`.
    #[target_feature(enable = "avx2,fma")]
    fn ln_cos(a: &[f64; 4], x: &[f64; 4]) -> ([f64; 4], [f64; 4]) {
        let (mut l, mut c) = ([0.0; 4], [0.0; 4]);
        // SAFETY: each array is four f64s, exactly what an unaligned
        // 256-bit load reads or store writes.
        unsafe {
            _mm256_storeu_pd(l.as_mut_ptr(), ln(_mm256_loadu_pd(a.as_ptr())));
            _mm256_storeu_pd(c.as_mut_ptr(), cos(_mm256_loadu_pd(x.as_ptr())));
        }
        (l, c)
    }

    #[test]
    fn lanes_match_scalar_at_the_edges() {
        with_lanes(|| {
            let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
            let u1s = [
                f64::MIN_POSITIVE,
                f64::EPSILON / 2.0,
                1.0 - f64::EPSILON / 2.0,
                f64::from_bits(sqrt_half.to_bits() - 1),
                sqrt_half,
                f64::from_bits(sqrt_half.to_bits() + 1),
            ];
            let u2s = [0.0, 0.25, 0.5, 0.75];
            let mut tiny_cos_fallbacks = 0;
            for u1 in u1s {
                let (v, kept) = run_lanes(&[u1; 4], &u2s);
                for (i, u2) in u2s.into_iter().enumerate() {
                    if kept & (1 << i) != 0 {
                        let scalar = box_muller(u1, u2).to_bits();
                        assert_eq!(v[i].to_bits(), scalar, "u1 {u1:e}, u2 {u2}");
                    }
                }
                // At u2 = 0.25 and 0.75, cos(fl(π/2)) ≈ 6e-17 and the
                // absolute term of the test widens the interval to 1.6e-8
                // relative, a quarter to a half of an f32 spacing: some of
                // these lanes straddle a rounding boundary and fall back.
                tiny_cos_fallbacks += (!kept & 0b1010).count_ones();
                let mut out = [0.0f32; 4];
                // SAFETY: `with_lanes` runs this only where `enabled` held.
                unsafe { block(&u2s.map(|u2| (u1, u2)), &mut out) };
                for (x, u2) in out.into_iter().zip(u2s) {
                    assert_eq!(
                        x.to_bits(),
                        box_muller(u1, u2).to_bits(),
                        "u1 {u1:e}, u2 {u2}"
                    );
                }
            }
            assert!(tiny_cos_fallbacks > 0, "the fallback never ran");
        });
    }

    #[test]
    fn block_matches_scalar_at_every_remainder() {
        with_lanes(|| {
            let mut rng = SmallRng::seed_from_u64(31);
            for n in 0..=33 {
                let u: Vec<(f64, f64)> = (0..n).map(|_| uniform_pair(&mut rng)).collect();
                let mut out = vec![f32::NAN; n];
                // SAFETY: `with_lanes` runs this only where `enabled` held.
                unsafe { block(&u, &mut out) };
                for (x, &(u1, u2)) in out.iter().zip(&u) {
                    assert_eq!(x.to_bits(), box_muller(u1, u2).to_bits(), "n {n}");
                }
            }
        });
    }

    /// The lane `ln` and `cos` stay inside the error budget's per-function
    /// figures against the host libm: `|kernel − libm| ≤ 4ε·|libm|`
    /// (1 ulp each side), plus the reduction's 1.41e-26 for `cos`.
    #[test]
    fn lane_ln_and_cos_are_within_the_budget() {
        with_lanes(|| {
            let eps = f64::EPSILON / 2.0;
            let ulps = |a: f64, b: f64| (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs();
            let mut rng = SmallRng::seed_from_u64(5);
            let (mut ln_max, mut cos_max) = (0, 0);
            for i in 0..(1 << 18) {
                let mut a = [0.0; 4];
                let mut x = [0.0; 4];
                for (a, x) in a.iter_mut().zip(&mut x) {
                    let (u1, u2) = uniform_pair(&mut rng);
                    // Every other group spreads u1 over all exponents.
                    *a = if i % 2 == 0 {
                        u1
                    } else {
                        f64::from_bits(
                            f64::MIN_POSITIVE.to_bits() + (u1.to_bits() % 0x3fe0_0000_0000_0000),
                        )
                    };
                    *x = 2.0 * PI * u2;
                }
                // SAFETY: `with_lanes` runs this only where `enabled` held.
                let (l, c) = unsafe { ln_cos(&a, &x) };
                for j in 0..4 {
                    let (gl, gc) = (a[j].ln(), x[j].cos());
                    assert!((l[j] - gl).abs() <= 4.0 * eps * gl.abs(), "ln {:e}", a[j]);
                    assert!(
                        (c[j] - gc).abs() <= 4.0 * eps * gc.abs() + 1.41e-26,
                        "cos {:e}",
                        x[j]
                    );
                    ln_max = ln_max.max(ulps(l[j], gl));
                    cos_max = cos_max.max(ulps(c[j], gc));
                }
            }
            println!("max error against libm over 2^20 inputs: ln {ln_max} ulp, cos {cos_max} ulp");
        });
    }

    /// ≥ 10⁸ pairs of the real `SmallRng` stream through the lanes: every
    /// kept lane equals the scalar `box_muller` bit for bit. Prints the
    /// fallback count. Release build: `cargo test --release -p coca-math
    /// -- --ignored`.
    #[test]
    #[ignore]
    fn sweep_1e8_pairs_bit_identical() {
        with_lanes(|| {
            const GROUPS: u64 = 25_000_000;
            let mut rng = SmallRng::seed_from_u64(0x5eed);
            let (mut fallbacks, mut mismatches) = (0u64, 0u64);
            for _ in 0..GROUPS {
                let (mut u1, mut u2) = ([0.0; 4], [0.0; 4]);
                for (a, b) in u1.iter_mut().zip(&mut u2) {
                    (*a, *b) = uniform_pair(&mut rng);
                }
                let (v, kept) = run_lanes(&u1, &u2);
                for i in 0..4 {
                    if kept & (1 << i) == 0 {
                        fallbacks += 1;
                    } else if v[i].to_bits() != box_muller(u1[i], u2[i]).to_bits() {
                        mismatches += 1;
                    }
                }
            }
            let lanes = 4 * GROUPS;
            println!(
                "{lanes} pairs: {mismatches} mismatches, {fallbacks} fallbacks ({:.2e})",
                fallbacks as f64 / lanes as f64
            );
            assert_eq!(mismatches, 0);
        });
    }
}
