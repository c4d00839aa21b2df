//! Property-based tests of the FTL: arbitrary write/read sequences on the
//! tiny SSD must keep the mapping tables and the GC picker consistent,
//! conserve live data through GC, and respect the free-block floor.

use proptest::prelude::*;
use reqblock_flash::{DegradedMode, FaultConfig, FlashTimeline, SsdConfig};
use reqblock_ftl::{Ftl, Placement};

/// (placement, start lpn, batch pages) over a small logical window so
/// overwrites (and thus GC) happen often.
fn ops() -> impl Strategy<Value = Vec<(bool, u64, u64)>> {
    proptest::collection::vec((any::<bool>(), 0u64..200, 1u64..12), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mapping_stays_consistent_under_churn(ops in ops()) {
        let cfg = SsdConfig::tiny();
        let mut ftl = Ftl::new(&cfg);
        let mut tl = FlashTimeline::new(&cfg);
        let mut written = std::collections::HashSet::new();
        let mut at = 0u64;
        for (striped, start, pages) in ops {
            at += 1_000_000;
            let lpns: Vec<u64> = (start..start + pages).collect();
            let placement = if striped { Placement::Striped } else { Placement::SingleBlock };
            let done = ftl.write_pages(&lpns, at, placement, &mut tl);
            prop_assert!(done >= at);
            for l in lpns {
                written.insert(l);
            }
        }
        // Every written LPN is mapped; every mapping checks out.
        for &l in &written {
            prop_assert!(ftl.is_mapped(l), "lost mapping for {l}");
        }
        ftl.check_consistency().map_err(TestCaseError::fail)?;
        prop_assert_eq!(ftl.live_pages(), written.len() as u64);
        // GC (if it ran) never breached physics: erases only of reclaimable
        // blocks, write amplification >= 1.
        prop_assert!(tl.counters().write_amplification() >= 1.0);
        // Free floor holds unless nothing was reclaimable.
        let floor = cfg.gc_free_blocks_floor();
        for free in ftl.free_blocks_per_chip() {
            prop_assert!(free >= floor.saturating_sub(1) || ftl.stats().gc_runs == 0);
        }
    }

    #[test]
    fn reads_never_disturb_state(ops in ops(), reads in proptest::collection::vec(0u64..200, 1..50)) {
        let cfg = SsdConfig::tiny();
        let mut ftl = Ftl::new(&cfg);
        let mut tl = FlashTimeline::new(&cfg);
        let mut at = 0u64;
        for (_, start, pages) in ops {
            at += 1_000_000;
            let lpns: Vec<u64> = (start..start + pages).collect();
            ftl.write_pages(&lpns, at, Placement::Striped, &mut tl);
        }
        let live_before = ftl.live_pages();
        let programs_before = tl.counters().total_programs();
        for lpn in reads {
            at += 1_000_000;
            let done = ftl.read_page(lpn, at, &mut tl);
            prop_assert!(done > at);
        }
        prop_assert_eq!(ftl.live_pages(), live_before);
        prop_assert_eq!(tl.counters().total_programs(), programs_before);
        ftl.check_consistency().map_err(TestCaseError::fail)?;
    }

    /// Program and erase failures drive every path that changes a full
    /// block's GC eligibility outside plain overwrites: blocks sealed with
    /// invalid pages, the erase-failure retirement of a GC victim,
    /// `retire_block` after a program failure, and the migrations that
    /// abort when retirements have eaten the spare space (the device then
    /// turns read-only). The mapping and the GC picker must stay exact
    /// after every batch.
    #[test]
    fn faulty_churn_keeps_mapping_and_picker_consistent(
        ops in ops(),
        seed in any::<u64>(),
        program_ppm in 1u32..60_000,
        erase_ppm in 1u32..300_000,
    ) {
        let cfg = SsdConfig::tiny();
        let faults = FaultConfig {
            on_exhaustion: DegradedMode::ReadOnly,
            ..FaultConfig::with_rates(seed, 0, program_ppm, erase_ppm)
        };
        let mut ftl = Ftl::with_faults(&cfg, faults);
        let mut tl = FlashTimeline::new(&cfg);
        let mut at = 0u64;
        for (striped, start, pages) in ops {
            at += 1_000_000;
            let lpns: Vec<u64> = (start..start + pages).collect();
            let placement = if striped { Placement::Striped } else { Placement::SingleBlock };
            ftl.write_pages(&lpns, at, placement, &mut tl);
            ftl.check_consistency().map_err(TestCaseError::fail)?;
        }
    }
}
