use super::*;
use crate::features::FeatureUniverse;
use crate::zoo;
use crate::ModelRuntime;
use coca_data::distribution::uniform_weights;
use coca_data::{Frame, StreamConfig, StreamGenerator};

const LAYER: usize = 4;

fn fixture() -> (FeatureUniverse, ClientProfile, Vec<Frame>) {
    let seeds = SeedTree::new(3);
    let uni = FeatureUniverse::new(&zoo::resnet50(), 10, &seeds);
    let client = ClientProfile::new(1, 0.4, 0.5, &seeds);
    let frames = StreamGenerator::new(
        StreamConfig::new(uniform_weights(10), 8.0),
        &SeedTree::new(4),
    )
    .take(100);
    (uni, client, frames)
}

#[test]
fn drifted_center_computes_once() {
    // A drifted offset is computed on first use, then lent out: every
    // later vector of that class at that layer reads the same buffer.
    let (uni, client, frames) = fixture();
    let mut view = ClientFeatureView::new();
    let memoized = |view: &ClientFeatureView| {
        view.offsets
            .get(LAYER, frames[0].class)
            .expect("filled on first use")
            .as_ptr()
    };
    uni.semantic_vector(&frames[0], &client, LAYER, &mut view);
    let first = memoized(&view);
    for f in &frames[1..] {
        uni.semantic_vector(f, &client, LAYER, &mut view);
    }
    assert_eq!(memoized(&view), first);
    let layers = uni.head_layer() + 1;
    assert!((0..layers)
        .filter(|&l| l != LAYER)
        .all(|l| (0..uni.num_classes()).all(|c| view.offsets.get(l, c).is_none())));
}

#[test]
fn shared_offsets_fill_once_for_every_view() {
    // A view that shares another's offsets fills the owner's memo and
    // reads what the owner filled; its vectors equal a private view's.
    let seeds = SeedTree::new(3);
    let dataset = coca_data::DatasetSpec::ucf101().subset(10);
    let rt = ModelRuntime::new(crate::ModelId::ResNet50, &dataset, &seeds);
    let (_, client, frames) = fixture();
    let (mut owner, mut worker) = (ClientFeatureView::new(), ClientFeatureView::new());
    worker.share_offsets(&mut owner, &rt);
    let v = rt.semantic_vector(&frames[0], &client, LAYER, &mut worker);
    let filled = owner
        .offsets
        .get(LAYER, frames[0].class)
        .map(<[f32]>::as_ptr);
    assert!(filled.is_some(), "the worker filled the owner's memo");
    assert_eq!(
        v,
        rt.semantic_vector(&frames[0], &client, LAYER, &mut ClientFeatureView::new())
    );
    let _ = rt.semantic_vector(&frames[0], &client, LAYER, &mut owner);
    assert_eq!(
        owner
            .offsets
            .get(LAYER, frames[0].class)
            .map(<[f32]>::as_ptr),
        filled
    );
}

#[test]
fn warm_view_on_a_transposed_shape_equals_a_fresh_view() {
    // ResNet101 at 18 classes and ResNet50 at 35 classes both hold 630
    // offsets (35 × 18 and 18 × 35). A view warmed on the first must not
    // serve its offsets or run noise to the second.
    let seeds = SeedTree::new(9);
    let warm_rt = ModelRuntime::new(
        crate::ModelId::ResNet101,
        &coca_data::DatasetSpec::ucf101().subset(18),
        &seeds,
    );
    let rt = ModelRuntime::new(
        crate::ModelId::ResNet50,
        &coca_data::DatasetSpec::ucf101().subset(35),
        &seeds,
    );
    let layers = |rt: &ModelRuntime| rt.universe().head_layer() + 1;
    assert_eq!((layers(&warm_rt), layers(&rt)), (35, 18));
    let client = ClientProfile::new(2, 0.4, 0.5, &seeds);
    let stream = |classes: usize| {
        StreamGenerator::new(
            StreamConfig::new(uniform_weights(classes), 8.0),
            &SeedTree::new(10),
        )
        .take(40)
    };
    let mut view = ClientFeatureView::new();
    for f in &stream(18) {
        for point in 0..warm_rt.num_cache_points() {
            warm_rt.semantic_vector(f, &client, point, &mut view);
        }
        warm_rt.classify(f, &client, &mut view);
    }
    let mut fresh = ClientFeatureView::new();
    for f in &stream(35) {
        for point in 0..rt.num_cache_points() {
            let warm = rt.semantic_vector(f, &client, point, &mut view);
            let cold = rt.semantic_vector(f, &client, point, &mut fresh);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&warm), bits(&cold), "point {point}");
        }
        let (a, b) = (
            rt.classify(f, &client, &mut view),
            rt.classify(f, &client, &mut fresh),
        );
        assert_eq!((a.class, a.margin.to_bits()), (b.class, b.margin.to_bits()));
    }
}

#[test]
fn run_noise_resets_on_new_run() {
    // A run's noise is drawn once per layer and reused by the run's later
    // frames; the next run redraws it into the same buffer.
    let (uni, client, frames) = fixture();
    let mut view = ClientFeatureView::new();
    let noise = |view: &ClientFeatureView| view.run_noise[LAYER].value.clone();
    uni.semantic_vector(&frames[0], &client, LAYER, &mut view);
    let (first, buffer) = (noise(&view), view.run_noise[LAYER].value.as_ptr());

    assert_eq!(frames[1].run_seed, frames[0].run_seed);
    uni.semantic_vector(&frames[1], &client, LAYER, &mut view);
    assert_eq!(noise(&view), first, "same run must reuse noise");

    let next = frames.iter().find(|f| f.run_seed != frames[0].run_seed);
    let next = next.expect("a second run");
    uni.semantic_vector(next, &client, LAYER, &mut view);
    let mut fresh = ClientFeatureView::new();
    uni.semantic_vector(next, &client, LAYER, &mut fresh);
    assert_ne!(noise(&view), first, "new run must redraw noise");
    assert_eq!(noise(&view), noise(&fresh));
    assert_eq!(view.run_noise[LAYER].value.as_ptr(), buffer);
}

#[test]
fn profile_validates_inputs() {
    let seeds = SeedTree::new(1);
    let p = ClientProfile::new(3, 0.2, 0.5, &seeds);
    assert_eq!(p.id, 3);
}

#[test]
#[should_panic(expected = "shared fraction")]
fn profile_rejects_bad_shared_frac() {
    let _ = ClientProfile::new(0, 0.2, 1.5, &SeedTree::new(1));
}
