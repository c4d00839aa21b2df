//! Baseline cache policies (see crate docs for the table of schemes).

pub mod bplru;
pub mod lru;
pub mod vbbms;

pub use bplru::{BplruCache, BplruConfig};
pub use lru::LruCache;
pub use vbbms::{VbbmsCache, VbbmsConfig};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for policy unit tests.

    use crate::policy::{Access, EvictionBatch, WriteBuffer};
    use reqblock_trace::Lpn;

    /// Drive a sequence of single-page writes with unique request ids.
    /// Returns all eviction batches produced.
    pub fn write_seq<B: WriteBuffer>(buf: &mut B, lpns: &[Lpn]) -> Vec<EvictionBatch> {
        let mut ev = Vec::new();
        for (i, &lpn) in lpns.iter().enumerate() {
            let a = Access { lpn, req_id: 1_000_000 + i as u64, req_pages: 1, now: i as u64 };
            buf.write(&a, &mut ev);
        }
        ev
    }

    /// All pages evicted so far, flattened in order.
    pub fn evicted_pages(batches: &[EvictionBatch]) -> Vec<Lpn> {
        batches.iter().flat_map(|b| b.lpns.iter().copied()).collect()
    }

    /// Check the universal invariants after a batch of operations.
    pub fn check_invariants<B: WriteBuffer>(buf: &B) {
        assert!(
            buf.len_pages() <= buf.capacity_pages(),
            "{}: len {} exceeds capacity {}",
            buf.name(),
            buf.len_pages(),
            buf.capacity_pages()
        );
    }
}
