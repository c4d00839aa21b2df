//! Property-based tests of the Req-block policy: the full internal
//! consistency check plus the universal write-buffer invariants under
//! arbitrary workloads and configurations.

use proptest::prelude::*;
use reqblock_cache::{Access, EvictionBatch, WriteBuffer};
use reqblock_core::{PriorityModel, ReqBlock, ReqBlockConfig};

type Step = (bool, u64, u64);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<bool>(), 0u64..300, 1u64..20), 1..250)
}

fn configs() -> impl Strategy<Value = ReqBlockConfig> {
    (
        1u32..10,
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            Just(PriorityModel::Full),
            Just(PriorityModel::NoSize),
            Just(PriorityModel::NoAge)
        ],
    )
        .prop_map(|(delta, split, merge, priority)| ReqBlockConfig {
            delta,
            split_large_on_hit: split,
            merge_on_evict: merge,
            priority,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn reqblock_invariants_hold_for_all_configs(
        steps in steps(),
        cfg in configs(),
        capacity in 8usize..80,
    ) {
        let mut buf = ReqBlock::new(capacity, cfg);
        let mut resident = std::collections::HashSet::new();
        let mut ev: Vec<EvictionBatch> = Vec::new();
        let mut now = 0u64;
        let mut inserted = 0u64;
        let mut evicted = 0u64;
        for (req_id, &(is_write, start, pages)) in steps.iter().enumerate() {
            for i in 0..pages {
                now += 1;
                let lpn = start + i;
                let a = Access { lpn, req_id: req_id as u64, req_pages: pages as u32, now };
                ev.clear();
                let was_resident = resident.contains(&lpn);
                let hit = if is_write { buf.write(&a, &mut ev) } else { buf.read(&a) };
                prop_assert_eq!(hit, was_resident, "hit report wrong for lpn {}", lpn);
                for batch in &ev {
                    prop_assert!(!batch.lpns.is_empty(), "empty eviction batch");
                    for l in &batch.lpns {
                        prop_assert!(resident.remove(l), "evicted non-resident page {l}");
                        evicted += 1;
                    }
                }
                if is_write && !hit {
                    resident.insert(lpn);
                    inserted += 1;
                }
                prop_assert!(buf.len_pages() <= capacity);
                prop_assert_eq!(buf.len_pages(), resident.len());
                let occ = buf.list_occupancy().unwrap();
                prop_assert_eq!(occ.iter().sum::<usize>(), buf.len_pages());
            }
        }
        buf.check_consistency().map_err(TestCaseError::fail)?;
        prop_assert_eq!(inserted, evicted + buf.len_pages() as u64);
        // Drain empties and conserves.
        let drained = buf.drain();
        let total: usize = drained.iter().map(|b| b.lpns.len()).sum();
        prop_assert_eq!(total, resident.len());
        prop_assert_eq!(buf.len_pages(), 0);
        prop_assert_eq!(buf.block_count(), 0);
        buf.check_consistency().map_err(TestCaseError::fail)?;
    }
}
