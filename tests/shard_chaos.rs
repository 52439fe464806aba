//! Seeded chaos for the shard fabric (DESIGN.md §16): randomized — but
//! reproducible — rounds of shard count, replica count, hedge policy, and
//! fault schedule. Whatever the round throws at it, every query must end
//! in exactly one of three states: an FNV-identical complete stream, a
//! typed error, or an explicit partial outcome. Never a hang, never
//! silent truncation.
//!
//! The schedule derives from `BAT_CHAOS_SEED` (fixed default), so a CI
//! failure reproduces locally with the same seed.

mod common;

mod chaos {
    use crate::common::{build_test_dataset, routed, wire_reference, BuildOpts, Workload};
    use bat_comm::{Cluster, TransportKind};
    use bat_obs::knobs::{self, EnvGuard};
    use bat_stream::{run_shard, ShardRouter, ROUTER_RANK};
    use libbat::Dataset;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Every round runs this many queries of the mix: the full read and
    /// the coarsest progressive pass.
    const QUERIES: usize = 2;

    /// Deterministic 64-bit LCG (Knuth MMIX constants) — no external
    /// randomness, the whole schedule follows from the seed.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }

        fn pick(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn chaos_seed() -> u64 {
        knobs::CHAOS_SEED.uint().unwrap_or(0xBA7C_4A05)
    }

    #[test]
    fn every_chaos_round_ends_identical_typed_or_partial() {
        let _guard = crate::common::serial_resetting(bat_faults::reset);
        let mut rng = Lcg(chaos_seed());
        let scratch = build_test_dataset(
            &Workload::Uniform {
                per_rank: 2000,
                seed: 47,
            },
            &BuildOpts {
                tag: "shard-chaos",
                target_file_bytes: 25_000,
                ..Default::default()
            },
        );
        let leaves = Dataset::open(&scratch.path, "s").unwrap().num_files();
        assert!(leaves >= 4);
        let (mut mix, mut expected) = wire_reference(&scratch.path);
        mix.truncate(QUERIES);
        expected.truncate(QUERIES);

        for round in 0..8 {
            let shards = 2 + rng.pick(2) as usize;
            let replicas = 1 + rng.pick(2);
            let hedge = ["off", "15", "auto"][rng.pick(3) as usize];
            let fault = match rng.pick(4) {
                0 => None,
                1 => Some(format!(
                    "shard.exec=kill@rank={}@nth={}",
                    1 + rng.pick(shards as u64),
                    1 + rng.pick(3)
                )),
                2 => Some(format!(
                    "shard.exec=delay:{}@rank={}",
                    20 + rng.pick(60),
                    1 + rng.pick(shards as u64)
                )),
                _ => Some(format!(
                    "shard.exec=kill@rank={}",
                    1 + rng.pick(shards as u64)
                )),
            };
            let allow_partial = rng.pick(2) == 0;
            eprintln!(
                "chaos round {round}: shards={shards} replicas={replicas} \
                 hedge={hedge} fault={fault:?} allow_partial={allow_partial}"
            );
            let _env = EnvGuard::set(&[
                (&knobs::SHARD_REPLICAS, Some(&replicas.to_string())),
                (&knobs::SHARD_HEDGE_MS, Some(hedge)),
            ]);
            bat_faults::reset();
            if let Some(spec) = &fault {
                bat_faults::configure(spec).expect("fault spec");
            }

            let dir = scratch.path.clone();
            let (mix, expected) = (mix.clone(), expected.clone());
            let outcomes = Cluster::run_with(TransportKind::Socket, 1 + shards, move |comm| {
                if comm.rank() == ROUTER_RANK {
                    let ds = Dataset::open(&dir, "s").expect("open dataset");
                    let router = ShardRouter::new(comm, Arc::new(ds));
                    for (qi, q) in mix.iter().enumerate() {
                        let q = q.clone().with_allow_partial(allow_partial);
                        let t0 = Instant::now();
                        let result = routed(&router, &q, Some(Duration::from_secs(8)));
                        let elapsed = t0.elapsed();
                        // Bounded: deadline + grace + slack, never a hang.
                        assert!(
                            elapsed < Duration::from_secs(30),
                            "query {qi} took {elapsed:?}"
                        );
                        match result {
                            Ok((digest, outcome)) if !outcome.is_partial() => {
                                assert_eq!(
                                    digest, expected[qi],
                                    "query {qi} completed with a non-identical stream"
                                );
                            }
                            Ok((_, outcome)) => {
                                assert!(
                                    allow_partial,
                                    "partial outcome without opt-in: {outcome:?}"
                                );
                                assert!(outcome.served_leaves < outcome.total_leaves);
                            }
                            Err(_typed) => {
                                // A typed error is an acceptable ending —
                                // the caller knows nothing was delivered
                                // complete.
                            }
                        }
                    }
                    router.shutdown();
                    true
                } else {
                    let ds = Dataset::open(&dir, "s").expect("open dataset");
                    run_shard(&*comm, &ds).expect("shard serve loop");
                    false
                }
            });
            bat_faults::reset();
            assert!(outcomes[ROUTER_RANK]);
        }
    }
}
