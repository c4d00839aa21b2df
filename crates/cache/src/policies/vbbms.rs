//! VBBMS — Virtual-Block-based Buffer Management Scheme (Du et al. \[16\];
//! compared baseline §4.1).
//!
//! VBBMS splits the buffer into a **random-request region** and a
//! **sequential-request region** at a 3:2 capacity ratio (paper §4.1) and
//! manages each at *virtual block* granularity: 3-page VBs under LRU in the
//! random region, 4-page VBs under FIFO in the sequential region. A request
//! is classified by size: requests larger than
//! [`VbbmsConfig::seq_threshold_pages`] go to the sequential region.
//! Evicting a VB flushes its few pages striped across channels, which is
//! why VBBMS keeps good response times (paper §4.2.2).
//!
//! A page cached in one region that is re-written by a request of the other
//! class stays where it is (it is a hit; no migration) — VBBMS regions are
//! about *insertion* routing.

use crate::list::{Handle, SlabList};
use crate::overhead::BLOCK_NODE_BYTES;
use crate::policy::{Access, EvictionBatch, WriteBuffer};
use reqblock_trace::Lpn;
use crate::fxhash::{fx_map_with_capacity, FxHashMap};

/// VBBMS tuning knobs (defaults follow the paper's §4.1 description).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VbbmsConfig {
    /// Random-region share of capacity, as (numerator, denominator).
    pub random_share: (usize, usize),
    /// Virtual-block size of the random region, pages.
    pub random_vb_pages: u64,
    /// Virtual-block size of the sequential region, pages.
    pub seq_vb_pages: u64,
    /// Requests with more pages than this go to the sequential region.
    pub seq_threshold_pages: u32,
}

impl Default for VbbmsConfig {
    fn default() -> Self {
        Self {
            random_share: (3, 5),
            random_vb_pages: 3,
            seq_vb_pages: 4,
            seq_threshold_pages: 4,
        }
    }
}

#[derive(Debug, Clone)]
struct Vb {
    id: u64,
    /// Bitmap of cached pages within the VB (vb sizes are <= 8).
    pages: u8,
}

/// One region: a VB list (LRU or FIFO) with a page budget.
struct Region {
    vb_pages: u64,
    cap_pages: usize,
    /// LRU regions refresh on hit; FIFO regions do not.
    lru: bool,
    list: SlabList<Vb>,
    map: FxHashMap<u64, Handle>,
    len_pages: usize,
}

impl Region {
    fn new(vb_pages: u64, cap_pages: usize, lru: bool) -> Self {
        assert!((1..=8).contains(&vb_pages), "VB size must be 1..=8 pages");
        Self {
            vb_pages,
            cap_pages,
            lru,
            list: SlabList::new(),
            // At most one node per resident virtual block; x2 keeps the
            // load factor below the resize threshold for the whole run.
            map: fx_map_with_capacity((cap_pages as u64).div_ceil(vb_pages) as usize * 2),
            len_pages: 0,
        }
    }

    fn vb_of(&self, lpn: Lpn) -> (u64, u8) {
        ((lpn / self.vb_pages), (lpn % self.vb_pages) as u8)
    }

    fn contains(&self, lpn: Lpn) -> bool {
        let (id, p) = self.vb_of(lpn);
        self.map.get(&id).is_some_and(|&h| self.list.get(h).pages & (1 << p) != 0)
    }

    /// Refresh recency on a hit (LRU regions only).
    fn touch(&mut self, lpn: Lpn) {
        if !self.lru {
            return;
        }
        let (id, _) = self.vb_of(lpn);
        if let Some(&h) = self.map.get(&id) {
            self.list.move_to_front(h);
        }
    }

    fn evict_back(&mut self, evictions: &mut Vec<EvictionBatch>) {
        let h = self.list.back().expect("evicting from empty region");
        let vb = self.list.remove(h);
        self.map.remove(&vb.id);
        let mut lpns = Vec::with_capacity(vb.pages.count_ones() as usize);
        for p in 0..self.vb_pages {
            if vb.pages & (1 << p) != 0 {
                lpns.push(vb.id * self.vb_pages + p);
            }
        }
        self.len_pages -= lpns.len();
        evictions.push(EvictionBatch::striped(lpns));
    }

    /// Insert a missing page, evicting VBs of *this region* as needed.
    fn insert(&mut self, lpn: Lpn, evictions: &mut Vec<EvictionBatch>) {
        while self.len_pages >= self.cap_pages {
            self.evict_back(evictions);
        }
        let (id, p) = self.vb_of(lpn);
        let h = match self.map.get(&id) {
            Some(&h) => {
                if self.lru {
                    self.list.move_to_front(h);
                }
                h
            }
            None => {
                let h = self.list.push_front(Vb { id, pages: 0 });
                self.map.insert(id, h);
                h
            }
        };
        let vb = self.list.get_mut(h);
        debug_assert_eq!(vb.pages & (1 << p), 0);
        vb.pages |= 1 << p;
        self.len_pages += 1;
    }

    fn drain_into(&mut self, out: &mut Vec<EvictionBatch>) {
        while !self.list.is_empty() {
            self.evict_back(out);
        }
    }
}

/// VBBMS write buffer.
pub struct VbbmsCache {
    capacity: usize,
    cfg: VbbmsConfig,
    random: Region,
    sequential: Region,
}

impl VbbmsCache {
    /// VBBMS buffer of `capacity_pages` total pages split per `cfg`.
    pub fn new(capacity_pages: usize, cfg: VbbmsConfig) -> Self {
        assert!(capacity_pages > 0, "cache capacity must be positive");
        let (num, den) = cfg.random_share;
        assert!(num > 0 && num < den, "random_share must be a proper fraction");
        let rand_cap = (capacity_pages * num / den).max(1);
        let seq_cap = (capacity_pages - rand_cap).max(1);
        Self {
            capacity: capacity_pages,
            random: Region::new(cfg.random_vb_pages, rand_cap, true),
            sequential: Region::new(cfg.seq_vb_pages, seq_cap, false),
            cfg,
        }
    }

    /// Capacity of the random region in pages.
    pub fn random_capacity_pages(&self) -> usize {
        self.random.cap_pages
    }

    /// Capacity of the sequential region in pages.
    pub fn sequential_capacity_pages(&self) -> usize {
        self.sequential.cap_pages
    }

    fn is_sequential_request(&self, a: &Access) -> bool {
        a.req_pages > self.cfg.seq_threshold_pages
    }
}

impl WriteBuffer for VbbmsCache {
    fn name(&self) -> &str {
        "VBBMS"
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn len_pages(&self) -> usize {
        self.random.len_pages + self.sequential.len_pages
    }

    fn contains(&self, lpn: Lpn) -> bool {
        self.random.contains(lpn) || self.sequential.contains(lpn)
    }

    fn write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        if self.random.contains(a.lpn) {
            self.random.touch(a.lpn);
            return true;
        }
        if self.sequential.contains(a.lpn) {
            return true; // FIFO: no recency update
        }
        if self.is_sequential_request(a) {
            self.sequential.insert(a.lpn, evictions);
        } else {
            self.random.insert(a.lpn, evictions);
        }
        false
    }

    fn read(&mut self, a: &Access) -> bool {
        if self.random.contains(a.lpn) {
            self.random.touch(a.lpn);
            true
        } else {
            self.sequential.contains(a.lpn)
        }
    }

    fn node_count(&self) -> usize {
        self.random.list.len() + self.sequential.list.len()
    }

    fn metadata_bytes(&self) -> usize {
        self.node_count() * BLOCK_NODE_BYTES
    }

    fn drain(&mut self) -> Vec<EvictionBatch> {
        let mut out = Vec::new();
        self.random.drain_into(&mut out);
        self.sequential.drain_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::*;

    fn vbbms(cap: usize) -> VbbmsCache {
        VbbmsCache::new(cap, VbbmsConfig::default())
    }

    fn small_write(c: &mut VbbmsCache, lpn: Lpn, now: u64, ev: &mut Vec<EvictionBatch>) -> bool {
        c.write(&Access { lpn, req_id: now, req_pages: 1, now }, ev)
    }

    fn large_write(c: &mut VbbmsCache, lpn: Lpn, now: u64, ev: &mut Vec<EvictionBatch>) -> bool {
        c.write(&Access { lpn, req_id: 777, req_pages: 16, now }, ev)
    }

    #[test]
    fn capacity_split_is_three_to_two() {
        let c = vbbms(10);
        assert_eq!(c.random_capacity_pages(), 6);
        assert_eq!(c.sequential_capacity_pages(), 4);
    }

    #[test]
    fn small_requests_go_to_random_region() {
        let mut c = vbbms(10);
        let mut ev = Vec::new();
        small_write(&mut c, 0, 0, &mut ev);
        assert!(c.random.contains(0));
        assert!(!c.sequential.contains(0));
    }

    #[test]
    fn large_requests_go_to_sequential_region() {
        let mut c = vbbms(10);
        let mut ev = Vec::new();
        large_write(&mut c, 100, 0, &mut ev);
        assert!(c.sequential.contains(100));
        assert!(!c.random.contains(100));
    }

    #[test]
    fn regions_evict_independently() {
        let mut c = vbbms(10); // random cap 6, seq cap 4
        let mut ev = Vec::new();
        // Fill the sequential region with 4 pages; the random region stays
        // empty. A 5th sequential page must evict from sequential only.
        for i in 0..5 {
            large_write(&mut c, 100 + i, i, &mut ev);
        }
        assert!(!ev.is_empty());
        // Evicted pages must come from the 100.. range, not random.
        for b in &ev {
            for &lpn in &b.lpns {
                assert!(lpn >= 100);
            }
        }
        check_invariants(&c);
    }

    #[test]
    fn random_region_is_lru() {
        let mut c = vbbms(5); // random cap 3 (1 VB), seq cap 2
        let mut ev = Vec::new();
        // VB size 3: lpns 0..3 are VB 0; lpns 3..6 are VB 1.
        small_write(&mut c, 0, 0, &mut ev);
        small_write(&mut c, 3, 1, &mut ev);
        small_write(&mut c, 4, 2, &mut ev);
        // Touch VB 0 so VB 1 becomes LRU.
        small_write(&mut c, 0, 3, &mut ev);
        ev.clear();
        small_write(&mut c, 1, 4, &mut ev); // random region full -> evict
        assert_eq!(evicted_pages(&ev), vec![3, 4], "LRU VB 1 must be evicted");
    }

    #[test]
    fn sequential_region_is_fifo() {
        let mut c = vbbms(20); // seq cap 8 = 2 VBs of 4
        let mut ev = Vec::new();
        // Two sequential VBs: 100..104 (VB 25) and 104..108 (VB 26).
        for i in 0..8 {
            large_write(&mut c, 100 + i, i, &mut ev);
        }
        // Hit the first VB; FIFO must ignore recency.
        assert!(large_write(&mut c, 100, 10, &mut ev));
        ev.clear();
        large_write(&mut c, 108, 11, &mut ev); // full -> evict oldest VB
        assert_eq!(evicted_pages(&ev), vec![100, 101, 102, 103]);
    }

    #[test]
    fn vb_eviction_is_striped_batch() {
        let mut c = vbbms(5);
        let mut ev = Vec::new();
        for lpn in [0u64, 1, 2] {
            small_write(&mut c, lpn, lpn, &mut ev);
        }
        small_write(&mut c, 3, 4, &mut ev);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].placement, crate::Placement::Striped);
        assert_eq!(ev[0].len(), 3);
    }

    #[test]
    fn cross_region_rewrite_is_hit_in_place() {
        let mut c = vbbms(10);
        let mut ev = Vec::new();
        small_write(&mut c, 0, 0, &mut ev); // in random
        // A large request touching lpn 0 is a hit; page stays in random.
        assert!(large_write(&mut c, 0, 1, &mut ev));
        assert!(c.random.contains(0));
        assert!(!c.sequential.contains(0));
    }

    #[test]
    fn read_hits_both_regions() {
        let mut c = vbbms(10);
        let mut ev = Vec::new();
        small_write(&mut c, 0, 0, &mut ev);
        large_write(&mut c, 100, 1, &mut ev);
        assert!(c.read(&Access { lpn: 0, req_id: 9, req_pages: 1, now: 2 }));
        assert!(c.read(&Access { lpn: 100, req_id: 9, req_pages: 1, now: 3 }));
        assert!(!c.read(&Access { lpn: 55, req_id: 9, req_pages: 1, now: 4 }));
    }

    #[test]
    fn drain_empties_both_regions() {
        let mut c = vbbms(10);
        let mut ev = Vec::new();
        small_write(&mut c, 0, 0, &mut ev);
        large_write(&mut c, 100, 1, &mut ev);
        let d = c.drain();
        let mut pages = evicted_pages(&d);
        pages.sort_unstable();
        assert_eq!(pages, vec![0, 100]);
        assert_eq!(c.len_pages(), 0);
    }

    #[test]
    fn metadata_counts_vbs() {
        let mut c = vbbms(20);
        let mut ev = Vec::new();
        small_write(&mut c, 0, 0, &mut ev);
        small_write(&mut c, 1, 1, &mut ev); // same VB
        large_write(&mut c, 100, 2, &mut ev);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.metadata_bytes(), 48);
    }
}
