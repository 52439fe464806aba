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
    use crate::common::{build_test_dataset, fnv1a, BuildOpts, Workload};
    use bat_comm::{Cluster, TransportKind};
    use bat_layout::Query;
    use bat_obs::knobs::{self, EnvGuard};
    use bat_serve::QueryPlan;
    use bat_stream::{run_shard, ShardRouter};
    use libbat::Dataset;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// One shard cluster at a time per process (process-global fault
    /// registry and policy env knobs).
    static SERIAL: Mutex<()> = Mutex::new(());

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

    fn queries() -> Vec<Query> {
        vec![Query::new(), Query::new().with_quality(0.5)]
    }

    /// The per-point byte stream a query must reproduce, hashed.
    fn expected_digests(ds: &Dataset) -> Vec<u64> {
        queries()
            .iter()
            .map(|q| {
                let plan = QueryPlan::new(ds, q).expect("plan");
                let mut bytes: Vec<u8> = Vec::new();
                plan.execute(None, |p| {
                    for c in [p.position.x, p.position.y, p.position.z] {
                        bytes.extend_from_slice(&c.to_le_bytes());
                    }
                    for a in p.attrs {
                        bytes.extend_from_slice(&a.to_le_bytes());
                    }
                })
                .expect("execute");
                fnv1a(bytes)
            })
            .collect()
    }

    #[test]
    fn every_chaos_round_ends_identical_typed_or_partial() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
        let ds = Dataset::open(&scratch.path, "s").expect("open");
        assert!(ds.meta().leaves.len() >= 4);
        let expected = expected_digests(&ds);
        drop(ds);

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
            let expected = expected.clone();
            let outcomes = Cluster::run_with(TransportKind::Socket, 1 + shards, move |comm| {
                if comm.rank() == bat_stream::ROUTER_RANK {
                    let ds = Dataset::open(&dir, "s").expect("open dataset");
                    let router = ShardRouter::new(comm, Arc::new(ds));
                    for (qi, q) in queries().iter().enumerate() {
                        let q = q.clone().with_allow_partial(allow_partial);
                        let mut bytes: Vec<u8> = Vec::new();
                        let t0 = Instant::now();
                        let result = router.query(&q, Some(Duration::from_secs(8)), |c| {
                            for (i, p) in c.positions.iter().enumerate() {
                                for v in [p.x, p.y, p.z] {
                                    bytes.extend_from_slice(&v.to_le_bytes());
                                }
                                for a in 0..c.num_attrs {
                                    bytes.extend_from_slice(&c.attr(i, a).to_le_bytes());
                                }
                            }
                        });
                        let elapsed = t0.elapsed();
                        // Bounded: deadline + grace + slack, never a hang.
                        assert!(
                            elapsed < Duration::from_secs(30),
                            "query {qi} took {elapsed:?}"
                        );
                        match result {
                            Ok(outcome) if !outcome.is_partial() => {
                                assert_eq!(
                                    fnv1a(bytes),
                                    expected[qi],
                                    "query {qi} completed with a non-identical stream"
                                );
                            }
                            Ok(outcome) => {
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
            assert!(outcomes[bat_stream::ROUTER_RANK]);
        }
    }
}
