//! Per-client state: identity/drift profile and the feature-synthesis
//! workspace.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::{Arc, OnceLock};

use coca_sim::SeedTree;

use crate::features::FeatureUniverse;
use crate::inference::ModelRuntime;

/// A simulated client's data-distribution identity.
///
/// The context drift models non-IID *feature shift*: the same class looks
/// different through this client's camera. `drift_shared_frac` is the
/// portion of that shift shared with other clients of the deployment
/// (spatial similarity — the paper's motivation for collaboration).
#[derive(Debug, Clone)]
pub struct ClientProfile {
    /// Client id.
    pub id: u64,
    /// Magnitude of the context drift added to class centers (0 = client
    /// data matches the model's training distribution exactly).
    pub drift_mag: f32,
    /// Fraction of the drift direction shared across clients (the rest is
    /// client-unique), in [0, 1].
    pub drift_shared_frac: f32,
    /// Seed node for this client's unique directions.
    pub(crate) seed: SeedTree,
}

impl ClientProfile {
    /// Builds a client profile under the universe's seed tree.
    pub fn new(id: u64, drift_mag: f32, drift_shared_frac: f32, seeds: &SeedTree) -> Self {
        assert!(
            (0.0..=1.0).contains(&drift_shared_frac),
            "shared fraction must be in [0,1]"
        );
        assert!(drift_mag >= 0.0, "drift magnitude must be non-negative");
        Self {
            id,
            drift_mag,
            drift_shared_frac,
            seed: seeds.child("features").child_idx("client", id),
        }
    }
}

/// One client's feature-synthesis workspace.
///
/// Purely an optimization: results are identical with a fresh view (the
/// feature universe derives everything from seeds). It memoizes
///
/// * the client's drifted offsets h′, by `(layer, class)`, filled on
///   first use — they depend on nothing but the client. This is
///   the one memo a view can **share**: [`ClientFeatureView::share_offsets`]
///   points another view at it, so every thread synthesizing for one
///   client reads one set of offsets, each filled once by whichever thread
///   needs it first;
///
/// and, per view — one view per thread, never shared —
///
/// * the current run's noise per layer, keyed by the run's seed and
///   difficulty, in buffers a new run refills;
/// * the current run's ambiguity `(confuser, m)`, keyed by the run's seed,
///   class and difficulty;
/// * the class-structured lean draws `(class, w)` of the current run and
///   of the current frame, keyed by their seed — no layer enters them;
///
/// and holds the scratch buffers for φ, the frame noise and the isotropic
/// draw. None of the per-view memos depends on the client, so one thread's
/// view can synthesize for any client once it shares that client's
/// offsets. Every memo is keyed on the universe's shape (layers and
/// classes): a view used with a runtime of another shape starts over. Once
/// a layer's offsets and run noise are memoized, synthesizing a vector
/// allocates nothing but the vector returned, and
/// [`ModelRuntime::semantic_vector_into`] nothing at all once its output
/// buffer has room.
#[derive(Debug, Default)]
pub struct ClientFeatureView {
    pub(crate) offsets: Arc<DriftedOffsets>,
    pub(crate) run_noise: Vec<Memo<(u64, u32), Vec<f32>>>,
    pub(crate) confusion: Memo<(u64, usize, u32), (usize, f32)>,
    pub(crate) run_lean: Memo<u64, Vec<(usize, f32)>>,
    pub(crate) frame_lean: Memo<u64, Vec<(usize, f32)>>,
    pub(crate) phi: Vec<f32>,
    pub(crate) frame_noise: Vec<f32>,
    pub(crate) iso: Vec<f32>,
}

impl ClientFeatureView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the memos for `uni`; a no-op while its shape — layers and
    /// classes — is unchanged. A new shape starts the whole view over: its
    /// offsets, run noise and draws belong to another universe.
    pub(crate) fn fit(&mut self, uni: &FeatureUniverse) {
        let (layers, classes) = (uni.head_layer() + 1, uni.num_classes());
        if self.offsets.shape() != (layers, classes) {
            *self = Self {
                offsets: Arc::new(DriftedOffsets::new(uni)),
                run_noise: (0..layers).map(|_| Memo::default()).collect(),
                ..Self::default()
            };
        }
    }

    /// Makes this view read and fill `owner`'s drifted-offset memo instead
    /// of its own, both fitted to `rt` first: how a second thread
    /// synthesizes for `owner`'s client without a second copy of its
    /// offsets. This view keeps its own run memos and scratch.
    pub fn share_offsets(&mut self, owner: &mut ClientFeatureView, rt: &ModelRuntime) {
        owner.fit(rt.universe());
        self.fit(rt.universe());
        owner.offsets.table();
        if !Arc::ptr_eq(&self.offsets, &owner.offsets) {
            self.offsets = Arc::clone(&owner.offsets);
        }
    }
}

/// A client's drifted offsets h′: one flat table of every `(layer, class)`
/// offset, each written once — on first use, by whichever thread needs it
/// first — and read by every thread after.
///
/// The table is allocated whole, zeroed, by the first fill or by
/// [`ClientFeatureView::share_offsets`] — on the thread that owns the
/// client either way, so where an offset is first needed never decides
/// which allocator arena holds it, and a client that fills nothing (one
/// without drift) allocates nothing. A zeroed page costs memory only once
/// an offset on it is written, and the table is class-major — one row per
/// class, holding that class's offset at every layer — because a frame
/// reads its own class (and its confuser) at many layers: a sparsely
/// filled table then touches few pages.
#[derive(Debug, Default)]
pub(crate) struct DriftedOffsets {
    classes: usize,
    /// Per layer, where its offset starts in a class row; then the row's
    /// length.
    bases: Box<[usize]>,
    /// Per slot `layer × classes + class`: set once its offset is written.
    filled: Box<[OnceLock<()>]>,
    data: OnceLock<Table>,
}

impl DriftedOffsets {
    fn new(uni: &FeatureUniverse) -> Self {
        let (layers, classes) = (uni.head_layer() + 1, uni.num_classes());
        Self {
            classes,
            bases: std::iter::once(0)
                .chain((0..layers).scan(0, |end, l| {
                    *end += uni.dim(l);
                    Some(*end)
                }))
                .collect(),
            filled: (0..layers * classes).map(|_| OnceLock::new()).collect(),
            data: OnceLock::new(),
        }
    }

    /// `(layers, classes)` of the universe the table belongs to.
    fn shape(&self) -> (usize, usize) {
        (self.bases.len().saturating_sub(1), self.classes)
    }

    /// The zeroed table, allocated on first use.
    fn table(&self) -> &Table {
        let row = self.bases.last().copied().unwrap_or(0);
        self.data.get_or_init(|| Table::zeroed(self.classes * row))
    }

    /// Where `(layer, class)`'s offset lies in the table: `(start, dim)`.
    ///
    /// # Panics
    /// Panics unless the layer and the class exist — every access to the
    /// table relies on this check.
    fn range(&self, layer: usize, class: usize) -> (usize, usize) {
        assert!(class < self.classes, "class {class} outside the universe");
        let (base, end) = (self.bases[layer], self.bases[layer + 1]);
        (class * self.bases[self.bases.len() - 1] + base, end - base)
    }

    /// The offset of `(layer, class)`, written by `fill` on first use.
    pub(crate) fn get_or_fill(
        &self,
        layer: usize,
        class: usize,
        fill: impl FnOnce(&mut [f32]),
    ) -> &[f32] {
        let (start, dim) = self.range(layer, class);
        let table = self.table();
        self.filled[layer * self.classes + class].get_or_init(|| {
            // SAFETY: `range` keeps the slot inside the table; the lock
            // runs this once per slot, and nothing reads the slot before
            // the lock is set.
            fill(unsafe { table.slot_mut(start, dim) });
        });
        // SAFETY: inside the table; the slot was written before its lock
        // was set and is never written again.
        unsafe { table.slot(start, dim) }
    }

    /// The offset of `(layer, class)`, if some thread has written it.
    #[cfg(test)]
    pub(crate) fn get(&self, layer: usize, class: usize) -> Option<&[f32]> {
        self.filled[layer * self.classes + class].get()?;
        let (start, dim) = self.range(layer, class);
        // SAFETY: as in `get_or_fill`.
        Some(unsafe { self.table().slot(start, dim) })
    }
}

/// The floats of a [`DriftedOffsets`] table: one zeroed allocation.
#[derive(Debug)]
struct Table {
    ptr: NonNull<f32>,
    len: usize,
}

// SAFETY: `ptr` is an allocation the table owns alone (freed only in
// `Drop`) and `len` is plain data, so moving a table to another thread is
// sound. Sharing one is too: `DriftedOffsets` writes a slot only inside
// the initializer of that slot's `OnceLock` — by one thread, once — and
// reads it only after the lock is set, which orders the write before every
// read; distinct slots never overlap.
unsafe impl Send for Table {}
unsafe impl Sync for Table {}

impl Table {
    fn zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: NonNull::dangling(),
                len,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: `layout` has a non-zero size.
        let raw = unsafe { alloc_zeroed(layout) }.cast::<f32>();
        let ptr = NonNull::new(raw).unwrap_or_else(|| handle_alloc_error(layout));
        Self { ptr, len }
    }

    fn layout(len: usize) -> Layout {
        Layout::array::<f32>(len).expect("offset table too large")
    }

    /// `dim` floats from `start`, for writing.
    ///
    /// # Safety
    /// `start + dim` must not exceed the table, and no other reference to
    /// those floats may exist while the slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot_mut(&self, start: usize, dim: usize) -> &mut [f32] {
        debug_assert!(start + dim <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.as_ptr().add(start), dim)
    }

    /// `dim` floats from `start`.
    ///
    /// # Safety
    /// `start + dim` must not exceed the table, and no mutable reference
    /// to those floats may exist while the slice lives.
    unsafe fn slot(&self, start: usize, dim: usize) -> &[f32] {
        debug_assert!(start + dim <= self.len);
        std::slice::from_raw_parts(self.ptr.as_ptr().add(start), dim)
    }
}

impl Drop for Table {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in `zeroed` with this layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
        }
    }
}

/// A one-entry memo: the value last computed and the key it belongs to.
/// A new key refills the same value in place, so buffers are reused.
#[derive(Debug, Default)]
pub(crate) struct Memo<K, V> {
    key: Option<K>,
    value: V,
}

impl<K: PartialEq, V> Memo<K, V> {
    /// The value for `key`, recomputed by `fill` unless `key` is the one
    /// last filled.
    pub(crate) fn get_or_fill(&mut self, key: K, fill: impl FnOnce(&mut V)) -> &V {
        if self.key.as_ref() != Some(&key) {
            fill(&mut self.value);
            self.key = Some(key);
        }
        &self.value
    }
}

#[cfg(test)]
mod tests;
