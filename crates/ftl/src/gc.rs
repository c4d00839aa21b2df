//! Greedy GC victim selection.
//!
//! The paper's substrate (SSDsim) uses greedy garbage collection: the victim
//! is the full block with the most invalid pages, ties going to the highest
//! block number. A linear scan per GC would be O(blocks_per_chip) on every
//! invocation — far too slow at the 32 768 blocks/chip of the paper's
//! geometry — so each chip keeps an **exact bitmap index** of its eligible
//! blocks (full, with at least one invalid page), keyed by invalid count.
//!
//! Structure, for `stride = pages_per_block + 1` counts:
//! * `words[g * stride + c]` — bit `i` set ⇔ block `64 g + i` is eligible
//!   with exactly `c` invalid pages. The counts of one 64-block group sit
//!   side by side, so moving a block from `c − 1` to `c` touches two
//!   adjacent words, usually in one cache line.
//! * `summary[s * stride + c]` — bit `j` set ⇔ `words[(64 s + j) * stride
//!   + c]` is non-zero, i.e. which 64-bit words of count `c` hold a block.
//! * `occupied: u128` — bit `c` set ⇔ some block has count `c`.
//!
//! Cost of each operation:
//! * `note` (a full block gained an invalid page): clear the bit at
//!   `c − 1`, set it at `c`, and touch a summary word only when a word
//!   turns empty or non-empty. O(1).
//! * `insert` / `remove` (a block enters or leaves eligibility): one word
//!   update plus the same summary upkeep. O(1).
//! * `pick`: the top count is the highest bit of `occupied`; the highest
//!   block of that count is found from the highest non-zero summary word
//!   (one load per 4 096 blocks of the chip — eight at paper geometry) and
//!   then one word. The victim leaves the index.
//! * `clear`: zeroes only the words the summaries mark as set.
//!
//! Memory is bounded by the chip, not the run: `(pages_per_block + 1)`
//! bits per block, plus 1/64 of that for the summaries, over at most twice
//! the blocks up to the highest one the index has held, and never past
//! `blocks_per_chip`. The rows grow on demand, so a lightly used chip pays
//! for the few groups it touched.
//!
//! The index holds no stale entries, so the FTL must report every change
//! to a full block's eligibility: a block sealed with invalid pages
//! already (`insert`), a full block gaining an invalid page (`note`), and
//! a block taken out for migration, retirement or erase (`remove` /
//! `pick`). `Ftl::check_consistency` verifies the index against the block
//! states with [`GreedyPicker::audit`].

use reqblock_flash::SsdConfig;

/// Blocks covered by one summary bit (one index word per count).
const WORD_BLOCKS: usize = 64;
/// Groups covered by one summary word.
const SUMMARY_GROUPS: usize = 64;

/// Exact bitmap index of the greediest GC victim on one chip.
///
/// Counts are bounded by the per-block page count, which the valid-page
/// bitmap in [`crate::blocks`] already caps at 64 — so the occupancy mask
/// is a single `u128`.
#[derive(Debug, Clone)]
pub struct GreedyPicker {
    /// Counts per group: `pages_per_block + 1` (count 0 is never held).
    stride: usize,
    /// Groups the chip has, `ceil(blocks_per_chip / 64)`: the growth cap.
    max_groups: usize,
    /// `words[g * stride + c]`: blocks `64 g ..` eligible with count `c`.
    words: Vec<u64>,
    /// `summary[s * stride + c]`: which groups `64 s ..` have a non-zero
    /// word at count `c`.
    summary: Vec<u64>,
    /// Blocks held at each count.
    len: Vec<u32>,
    /// Bit `c` set ⇔ `len[c] > 0`.
    occupied: u128,
}

impl GreedyPicker {
    /// Empty index for one chip of `cfg`.
    pub fn new(cfg: &SsdConfig) -> Self {
        let stride = cfg.pages_per_block + 1;
        assert!(stride <= 128, "invalid counts exceed the u128 occupancy mask");
        Self {
            stride,
            max_groups: cfg.blocks_per_chip().div_ceil(WORD_BLOCKS),
            words: Vec::new(),
            summary: Vec::new(),
            len: vec![0; stride],
            occupied: 0,
        }
    }

    /// Drop every entry, keeping the (chip-bounded) allocation. Zeroes only
    /// the words the summaries mark as set; part of the FTL reset path.
    pub fn clear(&mut self) {
        let stride = self.stride;
        for (i, sum) in self.summary.iter_mut().enumerate() {
            let (s, c) = (i / stride, i % stride);
            while *sum != 0 {
                let g = s * SUMMARY_GROUPS + sum.trailing_zeros() as usize;
                self.words[g * stride + c] = 0;
                *sum &= *sum - 1;
            }
        }
        self.len.fill(0);
        self.occupied = 0;
    }

    /// Full `block` gained an invalid page and now holds `invalid_count`:
    /// move it up from `invalid_count − 1` (where it must be held, unless
    /// this is its first invalid page).
    #[inline]
    pub fn note(&mut self, block: u32, invalid_count: u32) {
        debug_assert!(invalid_count > 0);
        if invalid_count > 1 {
            self.remove(block, invalid_count - 1);
        }
        self.insert(block, invalid_count);
    }

    /// Add `block`, not currently held, at `invalid_count`: a block sealed
    /// with invalid pages already, or one put back after its migration
    /// aborted.
    #[inline]
    pub fn insert(&mut self, block: u32, invalid_count: u32) {
        let c = invalid_count as usize;
        debug_assert!(c > 0 && c < self.stride, "count {c} out of range");
        let g = block as usize / WORD_BLOCKS;
        let i = g * self.stride + c;
        if i >= self.words.len() {
            self.grow(g);
        }
        let bit = 1u64 << (block as usize % WORD_BLOCKS);
        let word = &mut self.words[i];
        debug_assert!(*word & bit == 0, "block {block} already held at count {c}");
        if *word == 0 {
            self.summary[g / SUMMARY_GROUPS * self.stride + c] |= 1u64 << (g % SUMMARY_GROUPS);
        }
        *word |= bit;
        self.len[c] += 1;
        self.occupied |= 1u128 << c;
    }

    /// Take `block`, held at `invalid_count`, out of the index.
    #[inline]
    pub fn remove(&mut self, block: u32, invalid_count: u32) {
        let c = invalid_count as usize;
        let g = block as usize / WORD_BLOCKS;
        let bit = 1u64 << (block as usize % WORD_BLOCKS);
        let word = &mut self.words[g * self.stride + c];
        debug_assert!(*word & bit != 0, "block {block} not held at count {c}");
        *word &= !bit;
        if *word == 0 {
            self.summary[g / SUMMARY_GROUPS * self.stride + c] &= !(1u64 << (g % SUMMARY_GROUPS));
        }
        self.len[c] -= 1;
        if self.len[c] == 0 {
            self.occupied &= !(1u128 << c);
        }
    }

    /// Extend every count's row to cover group `g`: at least doubling the
    /// groups held, so the copies amortize, and never past the chip.
    #[cold]
    fn grow(&mut self, g: usize) {
        let held = self.words.len() / self.stride;
        let groups = (g + 1).max(2 * held).min(self.max_groups);
        debug_assert!(g < groups, "block beyond the chip");
        let words = groups * self.stride;
        self.words.reserve_exact(words - self.words.len());
        self.words.resize(words, 0);
        let summary = groups.div_ceil(SUMMARY_GROUPS) * self.stride;
        self.summary.reserve_exact(summary - self.summary.len());
        self.summary.resize(summary, 0);
    }

    /// Remove and return the block with the most invalid pages (ties to
    /// the highest block number, i.e. the lexicographic maximum of
    /// `(invalid count, block)`), or `None` when no full block has an
    /// invalid page — GC cannot reclaim anything.
    pub fn pick(&mut self) -> Option<u32> {
        if self.occupied == 0 {
            return None;
        }
        let c = 127 - self.occupied.leading_zeros() as usize;
        let stride = self.stride;
        let (s, sum) = (0..self.summary.len() / stride)
            .rev()
            .map(|s| (s, self.summary[s * stride + c]))
            .find(|&(_, sum)| sum != 0)
            .expect("an occupied count has a summary bit");
        let g = s * SUMMARY_GROUPS + 63 - sum.leading_zeros() as usize;
        let word = self.words[g * stride + c];
        let block = (g * WORD_BLOCKS + 63 - word.leading_zeros() as usize) as u32;
        self.remove(block, c as u32);
        Some(block)
    }

    /// Blocks currently held; for tests.
    pub fn pending_entries(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }

    /// Every `(block, invalid count)` held, ascending by block, after
    /// checking that the summaries, per-count lengths and occupancy mask
    /// agree with the words. O(index size); consistency checks only.
    #[doc(hidden)]
    pub fn audit(&self) -> Result<Vec<(u32, u32)>, String> {
        let stride = self.stride;
        let mut entries = Vec::new();
        let mut len = vec![0u32; stride];
        for (i, &word) in self.words.iter().enumerate() {
            let (g, c) = (i / stride, i % stride);
            let summarized = self.summary[g / SUMMARY_GROUPS * stride + c] >> (g % SUMMARY_GROUPS) & 1;
            if (word != 0) != (summarized == 1) {
                return Err(format!("summary bit of group {g} count {c} disagrees with its word"));
            }
            if c == 0 && word != 0 {
                return Err(format!("group {g} holds blocks at count 0"));
            }
            let mut bits = word;
            while bits != 0 {
                entries.push(((g * WORD_BLOCKS) as u32 + bits.trailing_zeros(), c as u32));
                bits &= bits - 1;
            }
            len[c] += word.count_ones();
        }
        let groups = self.words.len() / stride;
        for (i, &sum) in self.summary.iter().enumerate() {
            let first = i / stride * SUMMARY_GROUPS;
            if first + (64 - sum.leading_zeros() as usize) > groups {
                return Err(format!("summary word {i} marks groups past the index"));
            }
        }
        if len != self.len {
            return Err(format!("per-count lengths {:?} != held blocks {len:?}", self.len));
        }
        let occupied = len.iter().enumerate().fold(0u128, |m, (c, &n)| m | u128::from(n > 0) << c);
        if occupied != self.occupied {
            return Err(format!("occupancy mask {:#x} != {occupied:#x}", self.occupied));
        }
        entries.sort_unstable();
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{BlockState, ChipBlocks};
    use proptest::prelude::*;

    /// Fill one block completely and return its id.
    fn fill_one_block(cb: &mut ChipBlocks, cfg: &SsdConfig) -> u32 {
        let mut last = 0;
        for _ in 0..cfg.pages_per_block {
            last = cb.allocate_page().unwrap().0;
        }
        last
    }

    /// Invalidate `page` of `block` as the FTL does: a full block moves up
    /// one count, a block still being written is not yet eligible.
    fn invalidate(cb: &mut ChipBlocks, p: &mut GreedyPicker, block: u32, page: u16) {
        let (inv, state) = cb.invalidate_with_state(block, page);
        if state == BlockState::Full {
            p.note(block, inv);
        }
    }

    /// Allocate one page as the FTL does: a block sealed while it already
    /// holds invalid pages enters the index.
    fn allocate(cb: &mut ChipBlocks, p: &mut GreedyPicker) -> Option<(u32, u16)> {
        let (block, page) = cb.allocate_page()?;
        let meta = cb.meta(block);
        if meta.state == BlockState::Full && meta.invalid_count() > 0 {
            p.insert(block, meta.invalid_count());
        }
        Some((block, page))
    }

    /// Full blocks with at least one invalid page, as `(block, count)`.
    fn eligible(cb: &ChipBlocks) -> Vec<(u32, u32)> {
        (0..cb.block_count() as u32)
            .filter_map(|b| {
                let meta = cb.meta(b);
                (meta.state == BlockState::Full && meta.invalid_count() > 0)
                    .then(|| (b, meta.invalid_count()))
            })
            .collect()
    }

    /// The greedy contract, spelled out: at any point, `pick` must return
    /// exactly the lexicographic max `(invalid_count, block)` over full
    /// blocks with at least one invalid page — what an O(n) scan computes.
    fn reference_victim(cb: &ChipBlocks) -> Option<u32> {
        eligible(cb).into_iter().map(|(b, c)| (c, b)).max().map(|(_, b)| b)
    }

    #[test]
    fn empty_picker_returns_none() {
        let cfg = SsdConfig::tiny();
        let mut p = GreedyPicker::new(&cfg);
        assert_eq!(p.pick(), None);
        assert_eq!(p.audit(), Ok(Vec::new()));
    }

    #[test]
    fn picks_block_with_most_invalid() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new(&cfg);
        let b0 = fill_one_block(&mut cb, &cfg);
        let b1 = fill_one_block(&mut cb, &cfg);
        // b0: 2 invalid pages; b1: 5 invalid pages.
        for page in 0..2 {
            invalidate(&mut cb, &mut p, b0, page);
        }
        for page in 0..5 {
            invalidate(&mut cb, &mut p, b1, page);
        }
        assert_eq!(p.audit(), Ok(vec![(b0, 2), (b1, 5)]));
        assert_eq!(p.pick(), Some(b1));
        assert_eq!(p.pick(), Some(b0));
        assert_eq!(p.pick(), None);
    }

    #[test]
    fn ties_go_to_the_highest_block() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new(&cfg);
        let blocks: Vec<u32> = (0..3).map(|_| fill_one_block(&mut cb, &cfg)).collect();
        for &b in &blocks {
            invalidate(&mut cb, &mut p, b, 0);
        }
        for &b in blocks.iter().rev() {
            assert_eq!(p.pick(), Some(b));
        }
    }

    #[test]
    fn note_moves_a_block_between_counts() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new(&cfg);
        let b = fill_one_block(&mut cb, &cfg);
        invalidate(&mut cb, &mut p, b, 0);
        invalidate(&mut cb, &mut p, b, 1);
        // One entry, at the current count: no stale (1, b) left behind.
        assert_eq!(p.audit(), Ok(vec![(b, 2)]));
        assert_eq!(p.pick(), Some(b));
        assert_eq!(p.pick(), None);
        assert_eq!(p.pending_entries(), 0);
    }

    #[test]
    fn removed_blocks_are_never_picked() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new(&cfg);
        let b = fill_one_block(&mut cb, &cfg);
        for page in 0..cfg.pages_per_block as u16 {
            invalidate(&mut cb, &mut p, b, page);
        }
        // What the FTL does before retiring a block.
        p.remove(b, cb.meta(b).invalid_count());
        cb.retire(b);
        assert_eq!(p.pick(), None);
        assert_eq!(p.audit(), Ok(Vec::new()));
    }

    #[test]
    fn block_sealed_with_invalid_pages_enters_at_its_count() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new(&cfg);
        let (b, page) = allocate(&mut cb, &mut p).unwrap();
        // Invalidated while still the active block: not eligible yet.
        invalidate(&mut cb, &mut p, b, page);
        assert_eq!(p.pending_entries(), 0);
        for _ in 1..cfg.pages_per_block {
            allocate(&mut cb, &mut p).unwrap();
        }
        assert_eq!(p.audit(), Ok(vec![(b, 1)]));
        assert_eq!(p.pick(), Some(b));
    }

    /// The index holds one entry per eligible block however long the run:
    /// overwrites of full blocks move entries, they never add them.
    #[test]
    fn entries_never_exceed_eligible_blocks() {
        let cfg = SsdConfig::tiny();
        let mut cb = ChipBlocks::new(&cfg);
        let mut p = GreedyPicker::new(&cfg);
        let blocks: Vec<u32> = (0..4).map(|_| fill_one_block(&mut cb, &cfg)).collect();
        for page in 0..cfg.pages_per_block as u16 {
            for &b in &blocks {
                invalidate(&mut cb, &mut p, b, page);
                let eligible = eligible(&cb).len();
                assert!(
                    p.pending_entries() <= eligible,
                    "{} entries for {eligible} eligible blocks",
                    p.pending_entries()
                );
            }
        }
    }

    #[test]
    fn rows_grow_on_demand_and_stay_within_the_chip() {
        let cfg = SsdConfig::paper();
        let mut p = GreedyPicker::new(&cfg);
        assert!(p.words.is_empty(), "construction allocates no rows");
        p.insert(3, 1);
        let stride = cfg.pages_per_block + 1;
        assert_eq!(p.words.len(), stride, "one 64-block group");
        p.insert(64, 1);
        assert_eq!(p.words.len(), 2 * stride, "growth doubles the groups held");
        let last = cfg.blocks_per_chip() as u32 - 1;
        p.insert(last, cfg.pages_per_block as u32);
        assert_eq!(p.words.len(), cfg.blocks_per_chip().div_ceil(WORD_BLOCKS) * stride);
        assert_eq!(p.pick(), Some(last));
        p.clear();
        assert_eq!(p.audit(), Ok(Vec::new()));
        assert_eq!(p.pick(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Drive the picker exactly as the FTL does — note on each full-
        /// block invalidation, insert a block sealed with invalid pages,
        /// erase the victim right after a successful pick — with an
        /// interleaved random schedule of invalidations, allocations, GC
        /// rounds and one reset-and-reuse, and check every pick against the
        /// O(n) reference scan and the index against the eligible set.
        #[test]
        fn pick_matches_reference_scan(
            ops in proptest::collection::vec((0u8..12, any::<u16>()), 1..400),
            reset_at in 0usize..400,
        ) {
            let cfg = SsdConfig::tiny();
            let mut cb = ChipBlocks::new(&cfg);
            let mut p = GreedyPicker::new(&cfg);
            let nblocks = cfg.blocks_per_chip() as u32;
            let seed = |cb: &mut ChipBlocks| {
                // Fill half the chip so there are Full blocks to chew on.
                for _ in 0..nblocks / 2 {
                    fill_one_block(cb, &cfg);
                }
            };
            seed(&mut cb);
            let ppb = cfg.pages_per_block as u16;
            for (step, (kind, arg)) in ops.into_iter().enumerate() {
                if step == reset_at {
                    // The FTL's reset path: the reused picker must behave
                    // like a fresh one from here on.
                    p.clear();
                    cb.reset();
                    prop_assert_eq!(p.pending_entries(), 0);
                    seed(&mut cb);
                }
                if kind < 6 {
                    // Invalidate a random still-valid page of a random
                    // block, full or still being written.
                    let b = u32::from(arg) % nblocks;
                    let valid = cb.meta(b).valid;
                    if valid == 0 {
                        continue;
                    }
                    invalidate(&mut cb, &mut p, b, valid.trailing_zeros() as u16);
                } else if kind < 9 {
                    // Write a page; sealing a block that already holds
                    // invalid pages makes it eligible.
                    for _ in 0..arg % ppb + 1 {
                        if allocate(&mut cb, &mut p).is_none() {
                            break;
                        }
                    }
                } else {
                    // GC round: pick, verify against the scan, then erase
                    // the victim like the FTL's reclaim loop does.
                    let expect = reference_victim(&cb);
                    let got = p.pick();
                    prop_assert_eq!(got, expect);
                    if let Some(b) = got {
                        cb.erase(b);
                    }
                }
                prop_assert_eq!(p.audit(), Ok(eligible(&cb)));
            }
            // Drain: repeated pick+erase must consume every reclaimable
            // block in exact greedy order, then report empty.
            loop {
                let expect = reference_victim(&cb);
                let got = p.pick();
                prop_assert_eq!(got, expect);
                match got {
                    Some(b) => cb.erase(b),
                    None => break,
                }
            }
            prop_assert_eq!(p.pending_entries(), 0);
        }
    }
}
