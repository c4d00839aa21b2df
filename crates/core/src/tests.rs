//! Unit tests of the Req-block mechanics: grouping, the three-level list
//! adjustments of Figure 5, Eq. 1 victim selection, and the Figure 6
//! downgraded merge.

use super::*;
use reqblock_cache::Placement;

/// Write one multi-page request starting at `start`; returns page hits.
fn write_req(
    c: &mut ReqBlock,
    req_id: u64,
    start: Lpn,
    pages: u64,
    now: u64,
    ev: &mut Vec<EvictionBatch>,
) -> usize {
    let mut hits = 0;
    for i in 0..pages {
        let a = Access { lpn: start + i, req_id, req_pages: pages as u32, now: now + i };
        if c.write(&a, ev) {
            hits += 1;
        }
    }
    hits
}

/// Read one multi-page request; returns page hits.
fn read_req(c: &mut ReqBlock, req_id: u64, start: Lpn, pages: u64, now: u64) -> usize {
    let mut hits = 0;
    for i in 0..pages {
        let a = Access { lpn: start + i, req_id, req_pages: pages as u32, now: now + i };
        if c.read(&a) {
            hits += 1;
        }
    }
    hits
}

fn occupancy(c: &ReqBlock) -> [usize; 3] {
    c.list_occupancy().expect("Req-block reports occupancy")
}

fn evicted(batches: &[EvictionBatch]) -> Vec<Lpn> {
    batches.iter().flat_map(|b| b.lpns.iter().copied()).collect()
}

// ---------------------------------------------------------------------
// Insertion and grouping
// ---------------------------------------------------------------------

#[test]
fn request_pages_form_one_irl_block() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 10, 4, 0, &mut ev);
    assert_eq!(c.block_count(), 1);
    assert_eq!(occupancy(&c), [4, 0, 0]);
    assert_eq!(c.len_pages(), 4);
    c.check_consistency().unwrap();
}

#[test]
fn distinct_requests_form_distinct_blocks() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 2, 0, &mut ev);
    write_req(&mut c, 2, 10, 3, 10, &mut ev);
    assert_eq!(c.block_count(), 2);
    assert_eq!(occupancy(&c), [5, 0, 0]);
}

#[test]
fn read_miss_does_not_insert() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    assert_eq!(read_req(&mut c, 1, 0, 4, 0), 0);
    assert_eq!(c.len_pages(), 0);
    assert_eq!(c.block_count(), 0);
}

#[test]
fn write_hit_is_absorbed() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 3, 0, &mut ev);
    let hits = write_req(&mut c, 2, 0, 3, 10, &mut ev);
    assert_eq!(hits, 3);
    assert_eq!(c.len_pages(), 3);
    assert!(ev.is_empty());
}

// ---------------------------------------------------------------------
// Figure 5(b): hits on small blocks
// ---------------------------------------------------------------------

#[test]
fn small_block_hit_promotes_to_srl() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 3, 0, &mut ev); // 3 <= delta=5: small
    assert_eq!(occupancy(&c), [3, 0, 0]);
    read_req(&mut c, 2, 0, 1, 10);
    assert_eq!(occupancy(&c), [0, 3, 0], "whole small block moves to SRL");
    c.check_consistency().unwrap();
}

#[test]
fn delta_boundary_block_is_small() {
    let cfg = ReqBlockConfig::with_delta(5);
    let mut c = ReqBlock::new(64, cfg);
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 5, 0, &mut ev); // exactly delta
    read_req(&mut c, 2, 0, 1, 10);
    assert_eq!(occupancy(&c), [0, 5, 0]);
}

#[test]
fn srl_block_rehit_moves_to_srl_head() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 2, 0, &mut ev);
    write_req(&mut c, 2, 10, 2, 10, &mut ev);
    read_req(&mut c, 3, 0, 1, 20); // block A -> SRL
    read_req(&mut c, 4, 10, 1, 30); // block B -> SRL head
    read_req(&mut c, 5, 0, 1, 40); // block A back to head
    assert_eq!(occupancy(&c), [0, 4, 0]);
    assert_eq!(c.block_count(), 2);
    c.check_consistency().unwrap();
}

// ---------------------------------------------------------------------
// Figure 5(a): hits on large blocks split to DRL
// ---------------------------------------------------------------------

#[test]
fn large_block_hit_splits_page_to_drl() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 8, 0, &mut ev); // 8 > delta: large
    read_req(&mut c, 2, 3, 1, 10); // hit page 3
    assert_eq!(occupancy(&c), [7, 0, 1]);
    assert_eq!(c.block_count(), 2);
    assert!(c.contains(3));
    c.check_consistency().unwrap();
}

#[test]
fn consecutive_hit_pages_of_one_request_share_drl_block() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 10, 0, &mut ev);
    read_req(&mut c, 2, 2, 3, 10); // hits pages 2,3,4
    assert_eq!(occupancy(&c), [7, 0, 3]);
    assert_eq!(c.block_count(), 2, "one original + one shared DRL block");
}

#[test]
fn hits_from_different_requests_create_separate_drl_blocks() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 10, 0, &mut ev);
    read_req(&mut c, 2, 0, 1, 10);
    read_req(&mut c, 3, 5, 1, 20);
    assert_eq!(occupancy(&c), [8, 0, 2]);
    assert_eq!(c.block_count(), 3);
}

#[test]
fn split_block_grown_small_promotes_on_next_hit() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 10, 0, &mut ev);
    read_req(&mut c, 2, 4, 2, 10); // DRL block of 2 pages (small)
    assert_eq!(occupancy(&c), [8, 0, 2]);
    read_req(&mut c, 3, 4, 1, 20); // hit the small split block
    assert_eq!(occupancy(&c), [8, 2, 0], "split block upgraded to SRL");
    c.check_consistency().unwrap();
}

#[test]
fn shrunken_original_block_promotes_when_small() {
    // Splits shrink the original; once <= delta, the next hit sends the
    // remainder to SRL instead of splitting further.
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 7, 0, &mut ev); // large (7 > 5)
    read_req(&mut c, 2, 0, 2, 10); // split 2 -> original has 5
    assert_eq!(occupancy(&c), [5, 0, 2]);
    read_req(&mut c, 3, 4, 1, 20); // original now small: promote
    assert_eq!(occupancy(&c), [0, 5, 2]);
}

#[test]
fn full_rescan_splits_then_promotes_remainder() {
    // Reading a whole large block page by page splits pages into DRL only
    // until the remainder shrinks to delta; the very next hit promotes the
    // remainder to SRL and subsequent hits stay there. A block is therefore
    // never emptied by splitting.
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 6, 0, &mut ev);
    read_req(&mut c, 2, 0, 6, 10);
    // Page 0 split (6 -> 5 pages); page 1 hit a now-small block -> SRL;
    // pages 2..5 hit the SRL block in place.
    assert_eq!(occupancy(&c), [0, 5, 1]);
    assert_eq!(c.block_count(), 2);
    c.check_consistency().unwrap();
}

#[test]
fn drl_large_block_splits_again_on_hit() {
    // A DRL block can itself exceed delta; hits on it split further
    // (Figure 5(a) covers "large request blocks located in either IRL or
    // DRL").
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 12, 0, &mut ev);
    read_req(&mut c, 2, 0, 7, 10); // 7 splits: DRL block of 7 (> delta)
    assert_eq!(occupancy(&c), [5, 0, 7]);
    read_req(&mut c, 3, 2, 1, 20); // hit inside the large DRL block
    assert_eq!(occupancy(&c), [5, 0, 7], "page moved between DRL blocks");
    assert_eq!(c.block_count(), 3);
    c.check_consistency().unwrap();
}

// ---------------------------------------------------------------------
// Eviction: Eq. 1 and victim selection
// ---------------------------------------------------------------------

#[test]
fn eviction_picks_cold_large_block_over_hot_small() {
    let mut c = ReqBlock::new(8, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 6, 0, &mut ev); // large, cold
    write_req(&mut c, 2, 100, 2, 10, &mut ev); // small
    read_req(&mut c, 3, 100, 2, 20); // promote to SRL, hot
    // Cache at 8/8: next insert evicts.
    ev.clear();
    write_req(&mut c, 4, 200, 1, 100, &mut ev);
    assert_eq!(ev.len(), 1);
    assert_eq!(evicted(&ev), vec![0, 1, 2, 3, 4, 5], "cold large block goes first");
    assert!(c.contains(100) && c.contains(101));
    c.check_consistency().unwrap();
}

#[test]
fn eviction_batches_are_striped() {
    let mut c = ReqBlock::new(4, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 4, 0, &mut ev);
    write_req(&mut c, 2, 10, 1, 10, &mut ev);
    assert_eq!(ev.len(), 1);
    assert_eq!(ev[0].placement, Placement::Striped);
    assert!(ev[0].dirty);
}

#[test]
fn whole_cache_single_block_evicts_itself() {
    let mut c = ReqBlock::new(4, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 4, 0, &mut ev);
    write_req(&mut c, 2, 100, 1, 10, &mut ev);
    assert_eq!(evicted(&ev), vec![0, 1, 2, 3]);
    assert_eq!(c.len_pages(), 1);
}

#[test]
fn capacity_is_never_exceeded() {
    let mut c = ReqBlock::new(16, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    for r in 0..50u64 {
        write_req(&mut c, r, r * 7 % 97, 1 + r % 9, r * 10, &mut ev);
        assert!(c.len_pages() <= 16, "len {} at request {r}", c.len_pages());
    }
    c.check_consistency().unwrap();
}

#[test]
fn older_block_evicted_among_equals() {
    let mut c = ReqBlock::new(4, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 2, 0, &mut ev);
    write_req(&mut c, 2, 10, 2, 100, &mut ev);
    ev.clear();
    write_req(&mut c, 3, 20, 1, 200, &mut ev);
    // Same cnt=1, same size=2; the older block (age 200 vs 100) is colder.
    assert_eq!(evicted(&ev), vec![0, 1]);
}

// ---------------------------------------------------------------------
// Figure 6: downgraded merging
// ---------------------------------------------------------------------

/// Build the canonical merge scenario: a heavily split origin block whose
/// access count keeps rising (every split hit counts as an access to the
/// block request) while its 1-page fragments cool down in DRL. Under Eq. 1
/// the oldest fragment ends up colder than the origin, so `get_victim`
/// selects the DRL tail while the origin still sits in IRL — exactly the
/// Figure 6 state.
fn merge_scenario(cfg: ReqBlockConfig) -> (ReqBlock, Vec<EvictionBatch>) {
    let mut c = ReqBlock::new(13, cfg);
    let mut ev = Vec::new();
    // Large request: 12 pages at t=0.
    write_req(&mut c, 1, 0, 12, 0, &mut ev);
    // Six 1-page reads from distinct requests split pages 0..6 into six
    // separate DRL blocks; the origin keeps 6 pages (> delta, stays IRL)
    // with access_cnt 7.
    for (i, page) in (0..6u64).enumerate() {
        read_req(&mut c, 2 + i as u64, page, 1, 10 + i as u64);
    }
    assert_eq!(occupancy(&c), [6, 0, 6]);
    // Much later, new writes need space. At t=1000 the tails compare as
    //   IRL tail (origin): 7 / (6 * 1001) ~ 0.001165
    //   DRL tail (D1):     1 / (1 * 991)  ~ 0.001009  <- coldest
    write_req(&mut c, 100, 100, 1, 1000, &mut ev); // fills to 13/13
    assert!(ev.is_empty());
    write_req(&mut c, 101, 200, 1, 1001, &mut ev); // triggers eviction
    (c, ev)
}

#[test]
fn downgraded_merge_evicts_split_with_origin() {
    let (c, ev) = merge_scenario(ReqBlockConfig::paper());
    assert_eq!(ev.len(), 1);
    let mut pages = ev[0].lpns.clone();
    pages.sort_unstable();
    // D1 held page 0 (split first); the origin retained pages 6..12.
    assert_eq!(pages, vec![0, 6, 7, 8, 9, 10, 11], "split block + origin remainder");
    assert_eq!(occupancy(&c), [2, 0, 5]); // two 1-page writes + D2..D6
    c.check_consistency().unwrap();
}

#[test]
fn merge_disabled_evicts_split_alone() {
    let cfg = ReqBlockConfig { merge_on_evict: false, ..ReqBlockConfig::paper() };
    let (c, ev) = merge_scenario(cfg);
    assert_eq!(ev.len(), 1);
    assert_eq!(ev[0].lpns, vec![0], "origin must stay cached");
    for lpn in 6..12 {
        assert!(c.contains(lpn));
    }
}

#[test]
fn merge_skipped_when_origin_left_irl() {
    // If the origin block shrank to delta and was promoted to SRL, the
    // merge must not fire (Algorithm 1 checks "original block ... still in
    // IRL").
    let mut c = ReqBlock::new(9, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 7, 0, &mut ev); // large (7 > 5)
    read_req(&mut c, 2, 0, 1, 10); // split page 0 -> origin 6 pages
    read_req(&mut c, 3, 1, 1, 11); // split page 1 -> origin 5 pages
    read_req(&mut c, 4, 2, 1, 12); // origin small now -> SRL
    assert_eq!(occupancy(&c), [0, 5, 2]);
    // Heat the SRL origin so it outranks the DRL fragments.
    for t in 0..4 {
        read_req(&mut c, 5 + t, 3, 1, 20 + t);
    }
    write_req(&mut c, 50, 100, 2, 1000, &mut ev); // fills to 9/9
    ev.clear();
    write_req(&mut c, 51, 200, 1, 1001, &mut ev);
    assert_eq!(ev.len(), 1);
    assert_eq!(ev[0].lpns, vec![0], "no merge outside IRL");
    for lpn in 2..7 {
        assert!(c.contains(lpn), "origin page {lpn} must stay cached");
    }
    c.check_consistency().unwrap();
}

// ---------------------------------------------------------------------
// Ablation: split disabled
// ---------------------------------------------------------------------

#[test]
fn split_disabled_keeps_large_blocks_whole() {
    let cfg = ReqBlockConfig { split_large_on_hit: false, ..ReqBlockConfig::paper() };
    let mut c = ReqBlock::new(64, cfg);
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 8, 0, &mut ev);
    read_req(&mut c, 2, 3, 1, 10);
    assert_eq!(occupancy(&c), [8, 0, 0], "no DRL traffic");
    assert_eq!(c.block_count(), 1);
    c.check_consistency().unwrap();
}

// ---------------------------------------------------------------------
// Probes, metadata, drain
// ---------------------------------------------------------------------

#[test]
fn metadata_is_32_bytes_per_request_block() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 4, 0, &mut ev);
    write_req(&mut c, 2, 10, 4, 10, &mut ev);
    assert_eq!(c.node_count(), 2);
    assert_eq!(c.metadata_bytes(), 64);
}

#[test]
fn drain_empties_everything_in_batches() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 6, 0, &mut ev);
    write_req(&mut c, 2, 10, 3, 10, &mut ev);
    read_req(&mut c, 3, 10, 1, 20); // one block in SRL
    let d = c.drain();
    let mut pages = evicted(&d);
    pages.sort_unstable();
    assert_eq!(pages, vec![0, 1, 2, 3, 4, 5, 10, 11, 12]);
    assert_eq!(c.len_pages(), 0);
    assert_eq!(c.block_count(), 0);
    assert_eq!(occupancy(&c), [0, 0, 0]);
}

#[test]
fn list_occupancy_sums_to_len() {
    let mut c = ReqBlock::new(32, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    write_req(&mut c, 1, 0, 9, 0, &mut ev);
    write_req(&mut c, 2, 20, 2, 10, &mut ev);
    read_req(&mut c, 3, 20, 2, 20);
    read_req(&mut c, 4, 0, 2, 30);
    let occ = occupancy(&c);
    assert_eq!(occ.iter().sum::<usize>(), c.len_pages());
    assert!(occ[1] > 0 && occ[2] > 0);
}

// ---------------------------------------------------------------------
// strictly_colder: Eq. 1 arithmetic
// ---------------------------------------------------------------------

#[test]
fn colder_prefers_fewer_accesses() {
    let a = PriorityTerms { access_cnt: 1, pages: 4, age: 100 };
    let b = PriorityTerms { access_cnt: 5, pages: 4, age: 100 };
    assert!(strictly_colder(a, b, PriorityModel::Full));
    assert!(!strictly_colder(b, a, PriorityModel::Full));
}

#[test]
fn colder_prefers_larger_blocks() {
    let a = PriorityTerms { access_cnt: 2, pages: 16, age: 100 };
    let b = PriorityTerms { access_cnt: 2, pages: 2, age: 100 };
    assert!(strictly_colder(a, b, PriorityModel::Full));
    // NoSize drops the preference: equal.
    assert!(!strictly_colder(a, b, PriorityModel::NoSize));
    assert!(!strictly_colder(b, a, PriorityModel::NoSize));
}

#[test]
fn colder_prefers_older_blocks() {
    let a = PriorityTerms { access_cnt: 2, pages: 4, age: 1_000 };
    let b = PriorityTerms { access_cnt: 2, pages: 4, age: 10 };
    assert!(strictly_colder(a, b, PriorityModel::Full));
    assert!(!strictly_colder(a, b, PriorityModel::NoAge));
}

#[test]
fn colder_is_irreflexive_on_ties() {
    let a = PriorityTerms { access_cnt: 3, pages: 5, age: 7 };
    assert!(!strictly_colder(a, a, PriorityModel::Full));
}

#[test]
fn colder_handles_zero_age_and_extremes() {
    let newborn = PriorityTerms { access_cnt: 1, pages: 1, age: 0 };
    let ancient = PriorityTerms { access_cnt: 1, pages: 64, age: u64::MAX };
    assert!(strictly_colder(ancient, newborn, PriorityModel::Full));
    assert!(!strictly_colder(newborn, ancient, PriorityModel::Full));
}

// ---------------------------------------------------------------------
// Randomized invariant check
// ---------------------------------------------------------------------

#[test]
fn fuzz_mixed_workload_maintains_invariants() {
    let mut c = ReqBlock::new(64, ReqBlockConfig::paper());
    let mut ev = Vec::new();
    let mut x: u64 = 0x9e3779b97f4a7c15;
    let mut evicted_total = 0usize;
    let mut inserted_total = 0usize;
    for r in 0..2_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let start = (x >> 8) % 256;
        let pages = 1 + (x >> 24) % 12;
        let now = r * 16;
        ev.clear();
        if x.is_multiple_of(3) {
            read_req(&mut c, r, start, pages, now);
        } else {
            let hits = write_req(&mut c, r, start, pages, now, &mut ev);
            inserted_total += pages as usize - hits;
        }
        evicted_total += ev.iter().map(|b| b.len()).sum::<usize>();
        if r % 97 == 0 {
            c.check_consistency().unwrap();
        }
    }
    c.check_consistency().unwrap();
    assert_eq!(inserted_total, evicted_total + c.len_pages(), "page conservation");
    // The workload has reuse, so all three lists should have seen traffic.
    let occ = occupancy(&c);
    assert_eq!(occ.iter().sum::<usize>(), c.len_pages());
}
