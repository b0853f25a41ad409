//! The cached runtime CPU-feature probe behind every x86_64 dispatch of
//! the workspace: the [`crate::simd`] kernels' AVX2 test, the four-lane
//! Box–Muller's AVX2 + FMA test and `coca-core`'s PCLMULQDQ CRC test.

use std::sync::atomic::{AtomicU8, Ordering};

/// A CPU-feature test run once, then cached.
pub struct Probe {
    /// 0 = unknown, 1 = absent, 2 = present.
    state: AtomicU8,
    detect: fn() -> bool,
}

impl Probe {
    /// A probe that runs `detect` on first use.
    pub const fn new(detect: fn() -> bool) -> Self {
        Self {
            state: AtomicU8::new(0),
            detect,
        }
    }

    /// True iff the running CPU has the probed features.
    #[inline]
    pub fn enabled(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let yes = (self.detect)();
                self.state.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
                yes
            }
        }
    }
}
