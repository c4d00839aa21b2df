//! BPLRU — Block Padding LRU (Kim & Ahn \[15\]; compared baseline §4.1).
//!
//! BPLRU manages the write buffer at flash-block granularity (64 pages):
//!
//! * any write to a page of a block moves the whole block to the MRU end
//!   ("block-level LRU");
//! * **LRU compensation**: a block whose pages were written strictly
//!   sequentially from page 0 through the last page is moved to the LRU end
//!   — fully sequential writes have "the least possibility of being
//!   rewritten in the near future";
//! * the LRU block is evicted as a unit and flushed onto a **single** flash
//!   block ([`crate::Placement::SingleBlock`]), which is why BPLRU cannot
//!   exploit channel parallelism (paper §4.2.2);
//! * **page padding** (optional here, see DESIGN.md §4): read the block's
//!   missing pages from flash and program the full block, turning the flush
//!   into a switch merge. Figures 10/11 are only consistent with padding
//!   disabled, so [`BplruConfig::page_padding`] defaults to `false` and the
//!   padded variant is measured as an ablation.
//!
//! Reads do not refresh block recency (BPLRU considers the buffer a write
//! buffer; read hits are still served from DRAM and counted by the
//! simulator).

use crate::list::{Handle, SlabList};
use crate::overhead::BLOCK_NODE_BYTES;
use crate::policy::{Access, EvictionBatch, WriteBuffer};
use reqblock_trace::Lpn;
use crate::fxhash::{fx_map_with_capacity, FxHashMap};

/// BPLRU tuning knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BplruConfig {
    /// Pad evicted blocks to full size with flash reads (original BPLRU's
    /// switch-merge optimization). Default `false`; see module docs.
    pub page_padding: bool,
}

/// Sentinel for "sequential pattern broken".
const SEQ_BROKEN: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct BlockNode {
    /// Logical flash block number (lpn / pages_per_block).
    block: u64,
    /// Bitmap of cached pages.
    pages: u64,
    /// Next page index expected to keep the write pattern sequential;
    /// `SEQ_BROKEN` once violated.
    seq_next: u32,
}

impl BlockNode {
    fn count(&self) -> u32 {
        self.pages.count_ones()
    }
}

/// BPLRU write buffer.
pub struct BplruCache {
    capacity: usize,
    pages_per_block: u64,
    cfg: BplruConfig,
    list: SlabList<BlockNode>,
    map: FxHashMap<u64, Handle>,
    len_pages: usize,
}

impl BplruCache {
    /// BPLRU buffer of `capacity_pages` pages over `pages_per_block`-page
    /// blocks.
    pub fn new(capacity_pages: usize, pages_per_block: usize, cfg: BplruConfig) -> Self {
        assert!(capacity_pages > 0, "cache capacity must be positive");
        assert!((1..=64).contains(&pages_per_block), "pages_per_block must be 1..=64");
        Self {
            capacity: capacity_pages,
            pages_per_block: pages_per_block as u64,
            cfg,
            list: SlabList::new(),
            // At most one node per resident block; x2 keeps the load factor
            // below the resize threshold for the whole run.
            map: fx_map_with_capacity(capacity_pages.div_ceil(pages_per_block) * 2),
            len_pages: 0,
        }
    }

    fn split(&self, lpn: Lpn) -> (u64, u32) {
        (lpn / self.pages_per_block, (lpn % self.pages_per_block) as u32)
    }

    fn evict_lru_block(&mut self, evictions: &mut Vec<EvictionBatch>) {
        let h = self.list.back().expect("evicting from empty cache");
        let node = self.list.remove(h);
        self.map.remove(&node.block);
        let mut lpns = Vec::with_capacity(node.count() as usize);
        let mut missing = Vec::new();
        for p in 0..self.pages_per_block {
            let lpn = node.block * self.pages_per_block + p;
            if node.pages & (1 << p) != 0 {
                lpns.push(lpn);
            } else if self.cfg.page_padding {
                missing.push(lpn);
            }
        }
        self.len_pages -= lpns.len();
        let mut batch = if self.cfg.page_padding {
            // Padded flush writes the whole block; the missing pages must be
            // read from flash first.
            let mut all = lpns;
            all.extend_from_slice(&missing);
            all.sort_unstable();
            EvictionBatch::single_block(all)
        } else {
            EvictionBatch::single_block(lpns)
        };
        batch.pad_reads = missing;
        evictions.push(batch);
    }
}

impl WriteBuffer for BplruCache {
    fn name(&self) -> &str {
        "BPLRU"
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn len_pages(&self) -> usize {
        self.len_pages
    }

    fn contains(&self, lpn: Lpn) -> bool {
        let (block, page) = self.split(lpn);
        self.map
            .get(&block)
            .is_some_and(|&h| self.list.get(h).pages & (1 << page) != 0)
    }

    fn write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        let (block, page) = self.split(a.lpn);
        let hit = self.contains(a.lpn);
        if !hit {
            while self.len_pages >= self.capacity {
                self.evict_lru_block(evictions);
            }
        }
        let h = match self.map.get(&block) {
            Some(&h) => h,
            None => {
                let h = self
                    .list
                    .push_front(BlockNode { block, pages: 0, seq_next: 0 });
                self.map.insert(block, h);
                h
            }
        };
        {
            let node = self.list.get_mut(h);
            if !hit {
                node.pages |= 1 << page;
            }
            // Sequential-pattern tracking: pages must arrive as 0,1,2,...
            if node.seq_next != SEQ_BROKEN {
                if page == node.seq_next {
                    node.seq_next += 1;
                } else {
                    node.seq_next = SEQ_BROKEN;
                }
            }
        }
        if !hit {
            self.len_pages += 1;
        }
        // Recency: MRU on any write...
        self.list.move_to_front(h);
        // ...unless the block just completed a fully sequential fill, in
        // which case it is demoted for preferential eviction.
        let node = self.list.get(h);
        if node.seq_next as u64 == self.pages_per_block {
            self.list.move_to_back(h);
        }
        hit
    }

    fn read(&mut self, a: &Access) -> bool {
        self.contains(a.lpn)
    }

    fn node_count(&self) -> usize {
        self.list.len()
    }

    fn metadata_bytes(&self) -> usize {
        self.node_count() * BLOCK_NODE_BYTES
    }

    fn drain(&mut self) -> Vec<EvictionBatch> {
        let mut out = Vec::new();
        while !self.list.is_empty() {
            self.evict_lru_block(&mut out);
        }
        debug_assert_eq!(self.len_pages, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::*;

    fn bplru(cap: usize) -> BplruCache {
        BplruCache::new(cap, 8, BplruConfig::default())
    }

    #[test]
    fn evicts_whole_lru_block_to_single_flash_block() {
        let mut c = bplru(4);
        write_seq(&mut c, &[0, 1, 16, 17]); // blocks 0 and 2
        let mut ev = Vec::new();
        c.write(&Access { lpn: 32, req_id: 9, req_pages: 1, now: 9 }, &mut ev);
        assert_eq!(ev.len(), 1);
        assert_eq!(evicted_pages(&ev), vec![0, 1]);
        assert_eq!(ev[0].placement, crate::Placement::SingleBlock);
        assert!(ev[0].pad_reads.is_empty(), "padding disabled by default");
        check_invariants(&c);
    }

    #[test]
    fn any_page_write_promotes_block() {
        let mut c = bplru(4);
        write_seq(&mut c, &[0, 16]); // block 0 older
        let mut ev = Vec::new();
        // Touch block 0 via a different page.
        c.write(&Access { lpn: 1, req_id: 9, req_pages: 1, now: 3 }, &mut ev);
        c.write(&Access { lpn: 32, req_id: 10, req_pages: 1, now: 4 }, &mut ev);
        c.write(&Access { lpn: 33, req_id: 10, req_pages: 1, now: 5 }, &mut ev);
        // Now over capacity: block 2 (page 16) is LRU.
        assert_eq!(evicted_pages(&ev), vec![16]);
    }

    #[test]
    fn fully_sequential_block_demoted_to_lru_end() {
        let mut c = bplru(16);
        // Fill block 1 sequentially (pages 8..16).
        let mut ev = Vec::new();
        for (i, lpn) in (8..16).enumerate() {
            c.write(&Access { lpn, req_id: 1, req_pages: 8, now: i as u64 }, &mut ev);
        }
        // Add a (non-sequential) page of block 0 afterwards.
        c.write(&Access { lpn: 1, req_id: 2, req_pages: 1, now: 20 }, &mut ev);
        // Force eviction: the sequential block must go first even though it
        // was written more recently than nothing else — and before block 0.
        for (i, lpn) in (24..32).enumerate() {
            c.write(&Access { lpn, req_id: 3, req_pages: 8, now: 30 + i as u64 }, &mut ev);
        }
        assert!(!ev.is_empty());
        assert_eq!(evicted_pages(&ev)[..8], [8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn non_sequential_fill_keeps_plain_lru_order() {
        let mut c = bplru(16);
        let mut ev = Vec::new();
        // Fill block 1 in reverse: never recognized as sequential, so no
        // demotion happens and plain LRU order decides.
        for (i, lpn) in (8..16).rev().enumerate() {
            c.write(&Access { lpn, req_id: 1, req_pages: 8, now: i as u64 }, &mut ev);
        }
        c.write(&Access { lpn: 0, req_id: 2, req_pages: 1, now: 20 }, &mut ev);
        for (i, lpn) in (24..32).enumerate() {
            c.write(&Access { lpn, req_id: 3, req_pages: 8, now: 30 + i as u64 }, &mut ev);
        }
        // Victim is block 1 — oldest by LRU, not demoted (contrast with the
        // sequential-fill test where the *newest* block is evicted).
        assert_eq!(evicted_pages(&ev)[..8], [8, 9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn padding_emits_pad_reads_and_full_block() {
        let mut c = BplruCache::new(4, 8, BplruConfig { page_padding: true });
        write_seq(&mut c, &[0, 3]); // block 0, pages 0 and 3
        write_seq(&mut c, &[16, 17]);
        let mut ev = Vec::new();
        c.write(&Access { lpn: 32, req_id: 9, req_pages: 1, now: 9 }, &mut ev);
        assert_eq!(ev.len(), 1);
        let b = &ev[0];
        assert_eq!(b.lpns.len(), 8, "padded flush writes the whole block");
        assert_eq!(b.pad_reads, vec![1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn read_hit_does_not_refresh() {
        let mut c = bplru(4);
        write_seq(&mut c, &[0, 16]);
        let mut ev = Vec::new();
        assert!(c.read(&Access { lpn: 0, req_id: 9, req_pages: 1, now: 5 }));
        c.write(&Access { lpn: 32, req_id: 10, req_pages: 1, now: 6 }, &mut ev);
        c.write(&Access { lpn: 33, req_id: 10, req_pages: 1, now: 7 }, &mut ev);
        c.write(&Access { lpn: 34, req_id: 10, req_pages: 1, now: 8 }, &mut ev);
        // Block 0 still LRU despite the read hit.
        assert_eq!(evicted_pages(&ev), vec![0]);
    }

    #[test]
    fn write_hit_updates_in_place() {
        let mut c = bplru(4);
        write_seq(&mut c, &[5]);
        let mut ev = Vec::new();
        assert!(c.write(&Access { lpn: 5, req_id: 9, req_pages: 1, now: 2 }, &mut ev));
        assert_eq!(c.len_pages(), 1);
        assert!(ev.is_empty());
    }

    #[test]
    fn drain_flushes_block_batches() {
        let mut c = bplru(8);
        write_seq(&mut c, &[0, 1, 16]);
        let d = c.drain();
        assert_eq!(d.len(), 2);
        assert_eq!(c.len_pages(), 0);
        let total: usize = d.iter().map(|b| b.len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn metadata_counts_blocks() {
        let mut c = bplru(8);
        write_seq(&mut c, &[0, 1, 2, 16]);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.metadata_bytes(), 48);
    }
}
