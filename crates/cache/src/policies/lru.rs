//! Page-granularity LRU — the paper's primary baseline.
//!
//! Every cached page is one node in a recency list; hits (read or write)
//! move the page to the MRU end; the LRU page is evicted alone, striped
//! placement. Metadata: 12 B per page node (§4.2.5).

use crate::list::{Handle, SlabList};
use crate::overhead::PAGE_NODE_BYTES;
use crate::policy::{Access, EvictionBatch, WriteBuffer};
use reqblock_trace::Lpn;
use crate::fxhash::{fx_map_with_capacity, FxHashMap};

/// Spare page-buffer pool ceiling shared by the recycling policies: enough
/// for any realistic in-flight eviction burst, small enough that the pool
/// never holds meaningful memory.
pub(crate) const SPARE_PAGE_BUFFERS: usize = 32;

/// Page-level LRU write buffer.
pub struct LruCache {
    capacity: usize,
    list: SlabList<Lpn>,
    map: FxHashMap<Lpn, Handle>,
    /// Recycled single-page eviction buffers (see [`WriteBuffer::recycle`]).
    spare: Vec<Vec<Lpn>>,
}

impl LruCache {
    /// LRU buffer holding up to `capacity_pages` pages.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "cache capacity must be positive");
        Self {
            capacity: capacity_pages,
            list: SlabList::with_capacity(capacity_pages),
            map: fx_map_with_capacity(capacity_pages * 2),
            spare: Vec::new(),
        }
    }

    fn evict_one(&mut self, evictions: &mut Vec<EvictionBatch>) {
        let victim = self.list.back().expect("evicting from empty cache");
        let lpn = self.list.remove(victim);
        self.map.remove(&lpn);
        let mut lpns = self.spare.pop().unwrap_or_default();
        lpns.push(lpn);
        evictions.push(EvictionBatch::striped(lpns));
    }
}

impl WriteBuffer for LruCache {
    fn name(&self) -> &str {
        "LRU"
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn len_pages(&self) -> usize {
        self.list.len()
    }

    fn contains(&self, lpn: Lpn) -> bool {
        self.map.contains_key(&lpn)
    }

    fn write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        if let Some(&h) = self.map.get(&a.lpn) {
            self.list.move_to_front(h);
            return true;
        }
        while self.list.len() >= self.capacity {
            self.evict_one(evictions);
        }
        let h = self.list.push_front(a.lpn);
        self.map.insert(a.lpn, h);
        false
    }

    fn read(&mut self, a: &Access) -> bool {
        if let Some(&h) = self.map.get(&a.lpn) {
            self.list.move_to_front(h);
            true
        } else {
            false
        }
    }

    fn node_count(&self) -> usize {
        self.list.len()
    }

    fn metadata_bytes(&self) -> usize {
        self.node_count() * PAGE_NODE_BYTES
    }

    fn drain(&mut self) -> Vec<EvictionBatch> {
        let lpns: Vec<Lpn> = self.list.iter_from_back().map(|h| *self.list.get(h)).collect();
        self.list = SlabList::new();
        self.map.clear();
        if lpns.is_empty() {
            Vec::new()
        } else {
            vec![EvictionBatch::striped(lpns)]
        }
    }

    fn recycle(&mut self, batch: EvictionBatch) {
        if self.spare.len() < SPARE_PAGE_BUFFERS {
            let mut lpns = batch.lpns;
            lpns.clear();
            self.spare.push(lpns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        write_seq(&mut c, &[1, 2, 3]);
        // Touch 1 so 2 becomes LRU.
        let mut ev = Vec::new();
        let a = Access { lpn: 1, req_id: 99, req_pages: 1, now: 10 };
        assert!(c.write(&a, &mut ev));
        let ev = write_seq(&mut c, &[4]);
        assert_eq!(evicted_pages(&ev), vec![2]);
        assert!(c.contains(1) && c.contains(3) && c.contains(4));
        check_invariants(&c);
    }

    #[test]
    fn read_hit_refreshes_recency() {
        let mut c = LruCache::new(2);
        write_seq(&mut c, &[1, 2]);
        let a = Access { lpn: 1, req_id: 50, req_pages: 1, now: 5 };
        assert!(c.read(&a));
        let ev = write_seq(&mut c, &[3]);
        // 2 was LRU after the read refreshed 1.
        assert_eq!(evicted_pages(&ev), vec![2]);
    }

    #[test]
    fn read_miss_does_not_insert() {
        let mut c = LruCache::new(2);
        let a = Access { lpn: 7, req_id: 1, req_pages: 1, now: 0 };
        assert!(!c.read(&a));
        assert_eq!(c.len_pages(), 0);
        assert!(!c.contains(7));
    }

    #[test]
    fn write_hit_absorbs_without_eviction() {
        let mut c = LruCache::new(1);
        write_seq(&mut c, &[5]);
        let mut ev = Vec::new();
        let a = Access { lpn: 5, req_id: 2, req_pages: 1, now: 1 };
        assert!(c.write(&a, &mut ev));
        assert!(ev.is_empty());
        assert_eq!(c.len_pages(), 1);
    }

    #[test]
    fn evictions_are_single_page_striped() {
        let mut c = LruCache::new(2);
        let ev = write_seq(&mut c, &[1, 2, 3, 4]);
        assert_eq!(ev.len(), 2);
        for b in &ev {
            assert_eq!(b.len(), 1);
            assert_eq!(b.placement, crate::Placement::Striped);
            assert!(b.dirty);
        }
    }

    #[test]
    fn metadata_is_12_bytes_per_page() {
        let mut c = LruCache::new(10);
        write_seq(&mut c, &[1, 2, 3]);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.metadata_bytes(), 36);
    }

    #[test]
    fn drain_returns_everything_lru_first() {
        let mut c = LruCache::new(3);
        write_seq(&mut c, &[1, 2, 3]);
        let ev = c.drain();
        assert_eq!(evicted_pages(&ev), vec![1, 2, 3]);
        assert_eq!(c.len_pages(), 0);
        assert!(!c.contains(1));
    }

    #[test]
    fn capacity_one_replaces_constantly() {
        let mut c = LruCache::new(1);
        let ev = write_seq(&mut c, &[1, 2, 3]);
        assert_eq!(evicted_pages(&ev), vec![1, 2]);
        assert!(c.contains(3));
        check_invariants(&c);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = LruCache::new(0);
    }
}
