//! # Req-block: request-granularity DRAM cache management
//!
//! This crate implements the contribution of *"DRAM Cache Management with
//! Request Granularity for NAND-based SSDs"* (Lin et al., ICPP 2022): a
//! write-buffer policy that manages cached data at the granularity of
//! **request blocks** — the set of pages written by one host request —
//! instead of pages or flash blocks.
//!
//! ## The three-level lists (paper §3.1, Figure 4)
//!
//! * **IRL** (*Inserted Request List*) — every new write request's pages are
//!   grouped into a request block and inserted at the IRL head.
//! * **SRL** (*Small Request List*) — when a block with at most
//!   [`ReqBlockConfig::delta`] pages is hit (read or re-write), it is
//!   upgraded to the SRL head. Small blocks are the hot ones (the paper's
//!   Figure 2 observation), so SRL residency protects them.
//! * **DRL** (*Divided Request List*) — when a *large* block is hit, only
//!   the hit pages are **split off** into a new block at the DRL head
//!   (Figure 5(a)); the cold remainder stays behind in its original block.
//!   A split block that shrinks to `<= delta` pages is promoted to SRL the
//!   next time it is hit (Figure 5(b)).
//!
//! ## Eviction (paper §3.3, Algorithm 1)
//!
//! The victim is chosen among the **tails** of the three lists by the lowest
//! priority of Eq. 1:
//!
//! ```text
//! Freq = Access_cnt / (Page_num * (T_cur - T_insert))
//! ```
//!
//! computed here in exact integer arithmetic over logical time (page
//! accesses processed). If the victim is a split block whose original block
//! still sits in IRL, the two are **merged and evicted together** (the
//! downgraded merging of Figure 6), and the whole batch is flushed striped
//! across channels.
//!
//! ## Ablation switches
//!
//! [`ReqBlockConfig`] exposes the design choices as switches so the bench
//! suite can measure each one: `split_large_on_hit` (DRL splitting),
//! `merge_on_evict` (downgraded merging), and [`PriorityModel`] (dropping
//! the size or age term of Eq. 1).
//!
//! ## Example
//!
//! ```
//! use reqblock_cache::{Access, EvictionBatch, WriteBuffer};
//! use reqblock_core::{ReqBlock, ReqBlockConfig};
//!
//! // A 16-page buffer with the paper's configuration (delta = 5).
//! let mut buf = ReqBlock::new(16, ReqBlockConfig::paper());
//! let mut evictions: Vec<EvictionBatch> = Vec::new();
//!
//! // A 3-page write request enters the IRL as one request block.
//! for (i, lpn) in (100..103).enumerate() {
//!     let miss = !buf.write(
//!         &Access { lpn, req_id: 1, req_pages: 3, now: i as u64 },
//!         &mut evictions,
//!     );
//!     assert!(miss);
//! }
//! assert_eq!(buf.list_occupancy(), Some([3, 0, 0]));
//!
//! // Re-reading any of its pages upgrades the whole small block to SRL.
//! buf.read(&Access { lpn: 101, req_id: 2, req_pages: 1, now: 10 });
//! assert_eq!(buf.list_occupancy(), Some([0, 3, 0]));
//! ```

use reqblock_cache::overhead::REQ_BLOCK_NODE_BYTES;
use reqblock_cache::{
    fx_map_with_capacity, Access, Arena, ArenaId, CacheEvents, EvictionBatch, FxHashMap, Handle,
    SlabList, WriteBuffer,
};
use reqblock_trace::Lpn;
use serde::{Deserialize, Serialize};

/// Which of the three lists a block currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Inserted Request List — freshly written blocks.
    Irl = 0,
    /// Small Request List — hit blocks of `<= delta` pages.
    Srl = 1,
    /// Divided Request List — hit fragments split from large blocks.
    Drl = 2,
}

/// Eq. 1 variants for the A3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PriorityModel {
    /// The paper's Eq. 1: `cnt / (pages * age)`.
    #[default]
    Full,
    /// Drop the size term: `cnt / age` (no small-block preference).
    NoSize,
    /// Drop the age term: `cnt / pages` (no recency decay).
    NoAge,
}

/// Req-block configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReqBlockConfig {
    /// Size limit delta of the Small Request List (paper default 5 after
    /// the §4.2.1 sensitivity study).
    pub delta: u32,
    /// Split hit pages of large blocks into DRL (Figure 5(a)). Disabling
    /// degrades hits on large blocks to a plain recency refresh (A1).
    pub split_large_on_hit: bool,
    /// Merge an evicted split block with its original IRL block and evict
    /// both in one batch (Figure 6). (A2)
    pub merge_on_evict: bool,
    /// Eq. 1 variant. (A3)
    pub priority: PriorityModel,
}

impl Default for ReqBlockConfig {
    fn default() -> Self {
        Self {
            delta: 5,
            split_large_on_hit: true,
            merge_on_evict: true,
            priority: PriorityModel::Full,
        }
    }
}

impl ReqBlockConfig {
    /// The paper's default (delta = 5, everything enabled).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Same defaults with a different delta (Figure 7 sweep).
    pub fn with_delta(delta: u32) -> Self {
        Self { delta, ..Self::default() }
    }
}

/// Inputs of the Eq. 1 priority of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityTerms {
    /// `Access_cnt`.
    pub access_cnt: u64,
    /// `Page_num`.
    pub pages: usize,
    /// `T_cur - T_insert` in logical time (clamped to >= 1 internally).
    pub age: u64,
}

/// Is `a` strictly colder (lower `Freq`, Eq. 1) than `b` under `model`?
///
/// Exact integer arithmetic: `cnt_a/(p_a*t_a) < cnt_b/(p_b*t_b)` iff
/// `cnt_a*p_b*t_b < cnt_b*p_a*t_a` (denominators positive). A zero age or
/// page count is clamped to 1 (a block inserted at the current instant is
/// maximally hot, not undefined).
pub fn strictly_colder(a: PriorityTerms, b: PriorityTerms, model: PriorityModel) -> bool {
    let den = |t: PriorityTerms| -> u128 {
        let pages = t.pages.max(1) as u128;
        let age = t.age.max(1) as u128;
        match model {
            PriorityModel::Full => pages * age,
            PriorityModel::NoSize => age,
            PriorityModel::NoAge => pages,
        }
    };
    (a.access_cnt as u128) * den(b) < (b.access_cnt as u128) * den(a)
}

/// Stable identifier of a request block. Generational: the arena bumps the
/// slot generation on free, so a stale id (e.g. a split block's `origin`
/// whose original was evicted) resolves to "absent" exactly like the
/// never-reused `u64` ids this replaced.
type BlockId = ArenaId;

/// One request block: the cached pages of (part of) a write request.
#[derive(Debug, Clone)]
struct Block {
    /// Request that created this block (groups pages arriving page-by-page).
    req_id: u64,
    /// Pages currently belonging to the block.
    pages: Vec<Lpn>,
    /// `Access_cnt` of Eq. 1 — initialized to 1, incremented per page hit.
    access_cnt: u64,
    /// `T_insert` of Eq. 1 — logical time of block creation.
    insert_time: u64,
    /// Current list.
    level: Level,
    /// Handle within the current list.
    handle: Handle,
    /// For split (DRL-born) blocks: the block they were divided from.
    origin: Option<BlockId>,
}

/// The Req-block write buffer.
pub struct ReqBlock {
    cfg: ReqBlockConfig,
    capacity: usize,
    /// Slab arena of live blocks: every access is one array index, no
    /// hashing, with freed slots reused through a free list.
    blocks: Arena<Block>,
    /// The three lists hold block ids; front = most recently adjusted.
    lists: [SlabList<BlockId>; 3],
    /// Pages per list (Figure 13 probe).
    pages_per_level: [usize; 3],
    /// LPN -> (owning block, position within its page vector). Tracking the
    /// position makes page removal an O(1) swap-remove with slot fixup.
    page_index: FxHashMap<Lpn, (BlockId, u32)>,
    /// List-transition counters for the observability layer (plain
    /// increments on paths that already touch the block — free to keep on).
    events: CacheEvents,
    /// Recycled page vectors: flushed eviction batches hand their `lpns`
    /// buffer back (see [`WriteBuffer::recycle`]) and new request blocks
    /// take one instead of allocating.
    spare_pages: Vec<Vec<Lpn>>,
}

impl ReqBlock {
    /// Req-block buffer of `capacity_pages` pages.
    pub fn new(capacity_pages: usize, cfg: ReqBlockConfig) -> Self {
        assert!(capacity_pages > 0, "cache capacity must be positive");
        assert!(cfg.delta >= 1, "delta must be at least 1");
        Self {
            cfg,
            capacity: capacity_pages,
            blocks: Arena::new(),
            lists: [SlabList::new(), SlabList::new(), SlabList::new()],
            pages_per_level: [0; 3],
            page_index: fx_map_with_capacity(capacity_pages * 2),
            events: CacheEvents::default(),
            spare_pages: Vec::new(),
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &ReqBlockConfig {
        &self.cfg
    }

    /// Number of live request blocks (across all lists).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    fn list(&mut self, level: Level) -> &mut SlabList<BlockId> {
        &mut self.lists[level as usize]
    }

    /// Eq. 1 comparison: is block `a` strictly colder (lower Freq) than `b`?
    fn colder(&self, a: &Block, b: &Block, now: u64) -> bool {
        let term = |blk: &Block| PriorityTerms {
            access_cnt: blk.access_cnt,
            pages: blk.pages.len(),
            age: now.saturating_sub(blk.insert_time),
        };
        strictly_colder(term(a), term(b), self.cfg.priority)
    }

    /// Create a block at the head of `level` for request `req_id`, or reuse
    /// the head block if it already belongs to that request (Algorithm 1,
    /// `create_req_blk`).
    fn head_block_for(
        &mut self,
        level: Level,
        req_id: u64,
        now: u64,
        origin: Option<BlockId>,
    ) -> BlockId {
        if let Some(h) = self.lists[level as usize].front() {
            let bid = *self.lists[level as usize].get(h);
            if self.blocks[bid].req_id == req_id {
                return bid;
            }
        }
        let bid = self.blocks.insert(Block {
            req_id,
            pages: self.spare_pages.pop().unwrap_or_default(),
            access_cnt: 1,
            insert_time: now,
            level,
            handle: Handle::default(),
            origin,
        });
        let handle = self.list(level).push_front(bid);
        self.blocks[bid].handle = handle;
        bid
    }

    /// Move a block to the head of `target`, updating level bookkeeping.
    fn move_block_to_head(&mut self, bid: BlockId, target: Level) {
        let block = &mut self.blocks[bid];
        let from = block.level;
        let handle = block.handle;
        let pages = block.pages.len();
        if from == target {
            self.lists[from as usize].move_to_front(handle);
            return;
        }
        block.level = target;
        self.lists[from as usize].remove(handle);
        let new_handle = self.lists[target as usize].push_front(bid);
        self.blocks[bid].handle = new_handle;
        self.pages_per_level[from as usize] -= pages;
        self.pages_per_level[target as usize] += pages;
    }

    /// Detach a block from its list and the arena, returning its pages.
    fn remove_block(&mut self, bid: BlockId) -> Vec<Lpn> {
        let block = self.blocks.remove(bid);
        self.lists[block.level as usize].remove(block.handle);
        self.pages_per_level[block.level as usize] -= block.pages.len();
        for lpn in &block.pages {
            let owner = self.page_index.remove(lpn);
            debug_assert_eq!(owner.map(|(b, _)| b), Some(bid));
        }
        block.pages
    }

    /// Append one page to `bid` and index it.
    fn add_page(&mut self, bid: BlockId, lpn: Lpn) {
        let block = &mut self.blocks[bid];
        debug_assert!(!block.pages.contains(&lpn));
        let pos = block.pages.len() as u32;
        block.pages.push(lpn);
        self.pages_per_level[block.level as usize] += 1;
        let prev = self.page_index.insert(lpn, (bid, pos));
        debug_assert!(prev.is_none(), "page already owned by another block");
    }

    /// Remove the page at position `pos` of `bid` (O(1) swap-remove with
    /// index fixup of the page that takes its place); drops the block if it
    /// becomes empty. Returns `true` if the block was dropped.
    fn remove_page_from_block(&mut self, bid: BlockId, pos: u32) -> bool {
        let block = &mut self.blocks[bid];
        let lpn = block.pages.swap_remove(pos as usize);
        self.pages_per_level[block.level as usize] -= 1;
        self.page_index.remove(&lpn);
        if let Some(&moved) = block.pages.get(pos as usize) {
            // The former last page now sits at `pos`; re-point its index.
            self.page_index
                .get_mut(&moved)
                .expect("moved page must be indexed")
                .1 = pos;
        }
        if block.pages.is_empty() {
            let block = self.blocks.remove(bid);
            self.lists[block.level as usize].remove(block.handle);
            true
        } else {
            false
        }
    }

    /// The hit path of Algorithm 1 (lines 19-28), shared by reads and
    /// writes. `bid`/`pos` come from the caller's page-index lookup.
    fn on_hit(&mut self, a: &Access, bid: BlockId, pos: u32) {
        let block = &mut self.blocks[bid];
        block.access_cnt += 1;
        let pages_len = block.pages.len() as u32;
        let level = block.level;
        if pages_len <= self.cfg.delta {
            // Small request block: upgrade to the SRL head.
            if level != Level::Srl {
                self.events.srl_upgrades += 1;
            }
            self.move_block_to_head(bid, Level::Srl);
            return;
        }
        if !self.cfg.split_large_on_hit {
            // Ablation A1: refresh recency within the current list only.
            self.move_block_to_head(bid, level);
            return;
        }
        // Large block: extract the hit page into a DRL block for this
        // request (Figure 5(a)). The new block is placed at the DRL head
        // regardless of where the original block sits. The hit still counts
        // as an access to the original block request (Eq. 1's Access_cnt is
        // "the access count of the block request since it was buffered"),
        // which is what makes the Figure 6 merge reachable: a repeatedly
        // split origin ages with a rising count while its fragments cool in
        // DRL.
        self.remove_page_from_block(bid, pos);
        self.events.drl_splits += 1;
        let dst = self.head_block_for(Level::Drl, a.req_id, a.now, Some(bid));
        if !self.blocks[dst].pages.is_empty() {
            // Reused head block: count this additional hit page.
            self.blocks[dst].access_cnt += 1;
        }
        self.add_page(dst, a.lpn);
    }

    /// `get_victim` of Algorithm 1 (lines 7-14): coldest tail of the three
    /// lists, with downgraded merging of split blocks (Figure 6).
    fn get_victim(&mut self, now: u64) -> Option<Vec<Lpn>> {
        let mut victim: Option<BlockId> = None;
        // Scan tails in IRL, SRL, DRL order; strict comparison makes the
        // lower list win ties (IRL blocks have the least standing).
        for level in [Level::Irl, Level::Srl, Level::Drl] {
            let Some(h) = self.lists[level as usize].back() else { continue };
            let bid = *self.lists[level as usize].get(h);
            victim = match victim {
                None => Some(bid),
                Some(cur) => {
                    if self.colder(&self.blocks[bid], &self.blocks[cur], now) {
                        Some(bid)
                    } else {
                        Some(cur)
                    }
                }
            };
        }
        let bid = victim?;
        self.events.victim_selections += 1;
        let origin = self.blocks[bid].origin;
        let mut pages = self.remove_block(bid);
        if self.cfg.merge_on_evict {
            if let Some(ob) = origin {
                // Merge with the original block if it still sits in IRL
                // (it may have been evicted, emptied, or promoted since —
                // a stale generational id resolves to None here).
                if self.blocks.get(ob).is_some_and(|b| b.level == Level::Irl) {
                    self.events.downgrade_merges += 1;
                    pages.extend(self.remove_block(ob));
                }
            }
        }
        Some(pages)
    }

    /// Total pages cached.
    fn total_pages(&self) -> usize {
        self.pages_per_level.iter().sum()
    }

    /// Verify internal invariants (O(cache size); tests only).
    #[doc(hidden)]
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut counted = [0usize; 3];
        let mut total_list_blocks = 0;
        for (li, list) in self.lists.iter().enumerate() {
            total_list_blocks += list.len();
            for h in list.iter_from_front() {
                let bid = *list.get(h);
                let b = self
                    .blocks
                    .get(bid)
                    .ok_or_else(|| format!("list {li} references dead block {bid}"))?;
                if b.level as usize != li {
                    return Err(format!("block {bid} level mismatch"));
                }
                if b.handle != h {
                    return Err(format!("block {bid} handle mismatch"));
                }
                if b.pages.is_empty() {
                    return Err(format!("empty block {bid} retained"));
                }
                counted[li] += b.pages.len();
                for (pos, lpn) in b.pages.iter().enumerate() {
                    match self.page_index.get(lpn) {
                        Some(&(owner, p)) if owner == bid && p as usize == pos => {}
                        other => {
                            return Err(format!(
                                "page {lpn} index mismatch: expected ({bid}, {pos}), got {other:?}"
                            ))
                        }
                    }
                }
            }
        }
        if total_list_blocks != self.blocks.len() {
            return Err("arena/list block count mismatch".into());
        }
        if counted != self.pages_per_level {
            return Err(format!(
                "page counters {:?} != recount {:?}",
                self.pages_per_level, counted
            ));
        }
        if self.page_index.len() != self.total_pages() {
            return Err("page index size mismatch".into());
        }
        if self.total_pages() > self.capacity {
            return Err("capacity exceeded".into());
        }
        Ok(())
    }
}

impl WriteBuffer for ReqBlock {
    fn name(&self) -> &str {
        "Req-block"
    }

    fn capacity_pages(&self) -> usize {
        self.capacity
    }

    fn len_pages(&self) -> usize {
        self.total_pages()
    }

    fn contains(&self, lpn: Lpn) -> bool {
        self.page_index.contains_key(&lpn)
    }

    fn write(&mut self, a: &Access, evictions: &mut Vec<EvictionBatch>) -> bool {
        // Single index probe serves both the hit check and the hit path.
        if let Some(&(bid, pos)) = self.page_index.get(&a.lpn) {
            self.on_hit(a, bid, pos);
            return true;
        }
        // Miss: make room (Algorithm 1 lines 32-35), then insert into the
        // IRL head block of this request (lines 36-37).
        while self.total_pages() >= self.capacity {
            let pages = self.get_victim(a.now).expect("cache full but no victim");
            debug_assert!(!pages.is_empty());
            evictions.push(EvictionBatch::striped(pages));
        }
        let bid = self.head_block_for(Level::Irl, a.req_id, a.now, None);
        self.add_page(bid, a.lpn);
        false
    }

    fn read(&mut self, a: &Access) -> bool {
        if let Some(&(bid, pos)) = self.page_index.get(&a.lpn) {
            self.on_hit(a, bid, pos);
            true
        } else {
            false
        }
    }

    fn node_count(&self) -> usize {
        self.blocks.len()
    }

    fn metadata_bytes(&self) -> usize {
        self.node_count() * REQ_BLOCK_NODE_BYTES
    }

    fn list_occupancy(&self) -> Option<[usize; 3]> {
        Some(self.pages_per_level)
    }

    fn events(&self) -> Option<&CacheEvents> {
        Some(&self.events)
    }

    fn drain(&mut self) -> Vec<EvictionBatch> {
        let mut out = Vec::new();
        let now = u64::MAX; // every block is maximally aged
        while self.total_pages() > 0 {
            let pages = self.get_victim(now).expect("pages cached but no victim");
            out.push(EvictionBatch::striped(pages));
        }
        out
    }

    fn recycle(&mut self, batch: EvictionBatch) {
        // Cap matches the page-policy pool: enough for any eviction burst,
        // never meaningful memory.
        const SPARE_PAGE_BUFFERS: usize = 32;
        if self.spare_pages.len() < SPARE_PAGE_BUFFERS {
            let mut pages = batch.lpns;
            pages.clear();
            self.spare_pages.push(pages);
        }
    }
}

#[cfg(test)]
mod tests;
