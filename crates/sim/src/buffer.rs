//! Static dispatch over the four cache policies.
//!
//! [`Device`](crate::Device) used to hold its policy as a
//! `Box<dyn WriteBuffer>`, which costs an indirect call per buffered page —
//! the single hottest call site in the simulator (every page of every
//! request goes through `write`/`read`). [`PolicyBuffer`] closes the set:
//! the four policy implementations become enum variants, so the per-page
//! calls devirtualize and inline into the engine loop, while everything
//! cold (occupancy queries, event counters, telemetry) still goes through
//! the trait object view returned by [`PolicyBuffer::as_dyn`].

use reqblock_cache::policies::{BplruCache, LruCache, VbbmsCache};
use reqblock_cache::{Access, EvictionBatch, WriteBuffer};
use reqblock_core::ReqBlock;

/// A write buffer with the policy chosen at construction but dispatched
/// statically: one branch per call instead of a vtable load + indirect
/// call per page.
pub enum PolicyBuffer {
    /// Page-level LRU.
    Lru(LruCache),
    /// Block padding LRU.
    Bplru(BplruCache),
    /// Virtual-block split-region scheme.
    Vbbms(VbbmsCache),
    /// The paper's contribution.
    ReqBlock(ReqBlock),
}

macro_rules! each_policy {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            PolicyBuffer::Lru($inner) => $body,
            PolicyBuffer::Bplru($inner) => $body,
            PolicyBuffer::Vbbms($inner) => $body,
            PolicyBuffer::ReqBlock($inner) => $body,
        }
    };
}

impl PolicyBuffer {
    /// Record a page write; returns whether it hit. See
    /// [`WriteBuffer::write`].
    #[inline]
    pub fn write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        each_policy!(self, c => c.write(a, evictions))
    }

    /// Record a page read; returns whether it hit. See
    /// [`WriteBuffer::read`].
    #[inline]
    pub fn read(&mut self, a: &Access) -> bool {
        each_policy!(self, c => c.read(a))
    }

    /// Hand a flushed batch back for buffer reuse. See
    /// [`WriteBuffer::recycle`].
    #[inline]
    pub fn recycle(&mut self, batch: EvictionBatch) {
        each_policy!(self, c => c.recycle(batch))
    }

    /// Remove and return everything still buffered. See
    /// [`WriteBuffer::drain`].
    pub fn drain(&mut self) -> Vec<EvictionBatch> {
        each_policy!(self, c => c.drain())
    }

    /// Trait-object view for the cold paths (occupancy, metadata, events):
    /// they run once per sample or per run, not once per page.
    pub fn as_dyn(&self) -> &dyn WriteBuffer {
        each_policy!(self, c => c as &dyn WriteBuffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;

    #[test]
    fn enum_dispatch_matches_boxed_dispatch() {
        // Same access stream through the enum and the trait object must
        // produce identical hit/miss decisions and eviction batches.
        for kind in PolicyKind::paper_comparison() {
            let mut enum_buf = kind.build_buffer(16, 8);
            let mut boxed = kind.build(16, 8);
            let mut ev_a = Vec::new();
            let mut ev_b = Vec::new();
            for i in 0..200u64 {
                let lpn = (i * 7) % 48;
                let a = Access { lpn, req_id: i, req_pages: 4, now: i * 100 };
                let (ha, hb) = if i % 3 == 0 {
                    (enum_buf.read(&a), boxed.read(&a))
                } else {
                    (enum_buf.write(&a, &mut ev_a), boxed.write(&a, &mut ev_b))
                };
                assert_eq!(ha, hb, "{}: hit decision diverged at i={i}", kind.name());
            }
            assert_eq!(ev_a.len(), ev_b.len(), "{}: eviction count diverged", kind.name());
            for (a, b) in ev_a.iter().zip(&ev_b) {
                assert_eq!(a.lpns, b.lpns, "{}: eviction batch diverged", kind.name());
            }
            assert_eq!(enum_buf.as_dyn().len_pages(), boxed.len_pages());
            assert_eq!(enum_buf.as_dyn().name(), kind.name());
            assert_eq!(
                enum_buf.drain().len(),
                boxed.drain().len(),
                "{}: drain diverged",
                kind.name()
            );
        }
    }
}
