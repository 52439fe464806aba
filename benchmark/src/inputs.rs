//! Everything the program under test is given: the particles and the query
//! list, both pure functions of `(seed, particles)`, plus the brute-force
//! oracle that says what each query must return.
//!
//! The oracle never touches the library's read path: it is a linear scan
//! over the generator's raw particles with the query semantics (inclusive
//! box, inclusive attribute range) written out here.

use bat_geom::{Aabb, Vec3};
use bat_layout::{ParticleSet, Query};
use bat_workloads::{Cosmology, RankGrid};

/// Rank threads of the in-process write cluster.
pub const RANKS: usize = 8;
/// Halos of the cosmology box.
pub const HALOS: usize = 64;
/// Distinct boxes (each also used by one `filter-lo` and one `filter-hi`).
pub const BOXES: usize = 16;
/// Candidate centres the boxes are chosen from.
const BOX_CANDIDATES: usize = 256;
/// The halo layout ("which universe") is the same for every seed; the seed
/// draws the particles of that universe: every position and attribute
/// value, hence every byte written, every box bound and filter threshold.
/// With 64 power-law halos a fresh layout per seed would be a different
/// aggregation tree per seed, and comparisons across seeds would measure
/// the layouts, not the code.
const UNIVERSE: u64 = 7;
/// Share of the particles each box holds.
pub const BOX_FRACTION: f64 = 0.03;
/// Attribute indices in the cosmology schema.
pub const ATTR_MASS: usize = 3;
pub const ATTR_DENSITY: usize = 5;
pub const NUM_ATTRS: usize = bat_workloads::cosmology::NUM_ATTRS;

/// What a result stream is reduced to before it is compared: the point
/// count, an order-dependent hash and an order-independent (multiset) hash
/// over the position and attribute bits of every point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub ordered: u64,
    pub multiset: u64,
}

#[inline]
fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^ (x >> 32)
}

impl Digest {
    #[inline]
    pub fn point(&mut self, pos: Vec3, attrs: &[f64]) {
        let mut h =
            mix(0x9e37_79b9_7f4a_7c15 ^ (pos.x.to_bits() as u64 | (pos.y.to_bits() as u64) << 32));
        h = mix(h ^ pos.z.to_bits() as u64);
        for a in attrs {
            h = mix(h ^ a.to_bits());
        }
        self.count += 1;
        self.ordered = (self.ordered ^ h).wrapping_mul(0x0000_0100_0000_01b3);
        self.multiset = self.multiset.wrapping_add(h);
    }
}

/// The five query classes of a cycle, plus the progressive refinement step
/// only the `remote-cold` exploration path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Coarse,
    Full,
    Box,
    FilterLo,
    FilterHi,
    Refine,
}

impl Class {
    /// Classes that have an end-to-end latency metric, in report order.
    pub const REPORTED: [Class; 5] = [
        Class::Coarse,
        Class::Full,
        Class::Box,
        Class::FilterLo,
        Class::FilterHi,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Class::Coarse => "coarse_p50_ms",
            Class::Full => "full_p50_ms",
            Class::Box => "box_p50_ms",
            Class::FilterLo => "filter_lo_p50_ms",
            Class::FilterHi => "filter_hi_p50_ms",
            Class::Refine => "refine_p50_ms",
        }
    }
}

/// What a query's result is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Brute-force scan of the raw particles: count + multiset hash.
    Oracle { count: u64, multiset: u64 },
    /// Level-of-detail subsets are defined by the tree, not by the data, so
    /// they are pinned to the `local-v1` `Dataset::query` stream: count +
    /// ordered hash, and never more points than the whole data set.
    Reference { count: u64, ordered: u64 },
    /// Reference not taken yet (only between generation and the first
    /// config-A write of a set-up).
    Pending,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub class: Class,
    pub query: Query,
    pub expect: Expect,
}

impl Spec {
    /// Does `got` agree with what this query must return?
    pub fn check(&self, got: &Digest) -> bool {
        match self.expect {
            Expect::Oracle { count, multiset } => got.count == count && got.multiset == multiset,
            Expect::Reference { count, ordered } => got.count == count && got.ordered == ordered,
            Expect::Pending => false,
        }
    }
}

/// The query list. One cycle is 1 coarse, 1 full, 4 box, 2 filter-lo and
/// 2 filter-hi in a fixed interleaving; cycle `c` rotates through the 16
/// boxes so four cycles visit every box once.
#[derive(Debug, Clone)]
pub struct QueryList {
    pub coarse: Spec,
    pub refine: Spec,
    pub full: Spec,
    pub boxes: Vec<Spec>,
    pub filter_lo: Vec<Spec>,
    pub filter_hi: Vec<Spec>,
}

/// Queries per cycle.
pub const CYCLE_LEN: usize = 10;

impl QueryList {
    pub fn cycle(&self, c: usize) -> [&Spec; CYCLE_LEN] {
        let b = |k: usize| &self.boxes[(4 * c + k) % BOXES];
        let lo = |k: usize| &self.filter_lo[(2 * c + k) % BOXES];
        let hi = |k: usize| &self.filter_hi[(2 * c + k) % BOXES];
        [
            &self.coarse,
            b(0),
            lo(0),
            b(1),
            hi(0),
            &self.full,
            b(2),
            lo(1),
            b(3),
            hi(1),
        ]
    }

    /// The fixed exploration path of a `remote-cold` session: coarse, refine
    /// 0.1 -> 0.4, 3 boxes, 2 filter-lo, 2 filter-hi (seven different
    /// regions). Then, because `coarse` has fetched every treelet and the
    /// cache-hit steps cost next to nothing beside one slept GET, the other
    /// 13 boxes and the bulk read five times: three `box` and one `full`
    /// sample per 0.6 s session left those two medians on 50 and 17
    /// samples a run, and they spread 10-20 %. Five, because a bulk read
    /// gets faster until the third (6.0, 4.6, 4.0, 3.9, 3.9 ms): with fewer
    /// the median sits between those populations.
    pub fn session(&self) -> Vec<&Spec> {
        let mut path = vec![&self.coarse, &self.refine];
        path.extend(&self.boxes[1..4]);
        path.extend(&self.filter_lo[5..7]);
        path.extend(&self.filter_hi[9..11]);
        path.extend(&self.boxes[4..]);
        path.push(&self.boxes[0]);
        path.extend([&self.full; 5]);
        path
    }

    pub fn all(&self) -> impl Iterator<Item = &Spec> {
        [&self.coarse, &self.refine, &self.full]
            .into_iter()
            .chain(&self.boxes)
            .chain(&self.filter_lo)
            .chain(&self.filter_hi)
    }

    #[cfg(test)]
    fn all_mut(&mut self) -> impl Iterator<Item = &mut Spec> {
        [&mut self.coarse, &mut self.refine, &mut self.full]
            .into_iter()
            .chain(&mut self.boxes)
            .chain(&mut self.filter_lo)
            .chain(&mut self.filter_hi)
    }

    /// Pin the level-of-detail queries to the reference stream `run`
    /// produces (the `local-v1` `Dataset::query` path on config A).
    pub fn take_reference(
        &mut self,
        mut run: impl FnMut(&Query) -> Result<Digest, String>,
    ) -> Result<(), String> {
        let total = match self.full.expect {
            Expect::Oracle { count, .. } => count,
            _ => unreachable!("full is an oracle query"),
        };
        for spec in [&mut self.coarse, &mut self.refine] {
            let d = run(&spec.query)?;
            if d.count == 0 || d.count > total {
                return Err(format!(
                    "{:?} reference returned {} points of {total}",
                    spec.class, d.count
                ));
            }
            spec.expect = Expect::Reference {
                count: d.count,
                ordered: d.ordered,
            };
        }
        Ok(())
    }

    /// Stable bytes of every query (wire encoding), for the "same seed,
    /// same inputs" test.
    #[cfg(test)]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = bat_wire::Encoder::new();
        for spec in self.all() {
            spec.query.encode(&mut enc);
        }
        enc.finish()
    }

    /// Make the oracle disagree with every query — the harness test that a
    /// wrong answer fails the run uses this.
    #[cfg(test)]
    pub fn corrupt_oracle(&mut self) {
        for spec in self.all_mut() {
            spec.expect = match spec.expect {
                Expect::Oracle { count, multiset } => Expect::Oracle {
                    count,
                    multiset: multiset ^ 1,
                },
                Expect::Reference { count, ordered } => Expect::Reference {
                    count,
                    ordered: ordered ^ 1,
                },
                Expect::Pending => Expect::Pending,
            };
        }
    }
}

/// The generated timestep: per-rank sets for the write pipeline and the
/// query list with its oracle. The raw columns the oracle scanned are
/// dropped once every expectation is computed.
pub struct Inputs {
    pub particles: usize,
    pub grid: RankGrid,
    /// One set per write rank (cloned into `write_particles` each write).
    pub rank_sets: Vec<ParticleSet>,
    pub queries: QueryList,
}

impl Inputs {
    /// Raw bytes of the timestep (3 x f32 + 6 x f64 per particle).
    pub fn raw_bytes(&self) -> u64 {
        self.particles as u64 * bat_workloads::cosmology::BYTES_PER_PARTICLE
    }

    /// Aggregation target: 8 MiB at one million particles, scaled with the
    /// particle count so every size writes the same ~6-leaf tree.
    pub fn target_file_bytes(&self) -> u64 {
        ((8u64 << 20) as f64 * self.particles as f64 / 1e6).max(64.0 * 1024.0) as u64
    }

    pub fn generate(particles: usize, seed: u64) -> Inputs {
        let mut cosmo = Cosmology::new(particles as u64, HALOS, UNIVERSE);
        cosmo.seed = seed;
        // A one-rank grid owns every particle: one pass of the generator's
        // stream instead of one pass per write rank.
        let all = cosmo.generate_rank(&cosmo.grid(1), 0);
        let grid = cosmo.grid(RANKS);

        // Stable partition by owning rank.
        let owner: Vec<u32> = all
            .positions
            .iter()
            .map(|&p| grid.rank_of_point(p) as u32)
            .collect();
        let mut perm: Vec<u32> = (0..all.len() as u32).collect();
        perm.sort_by_key(|&i| owner[i as usize]);
        let grouped = all.permute(&perm);
        let mut rank_sets = Vec::with_capacity(RANKS);
        let mut start = 0;
        for r in 0..RANKS as u32 {
            let len = owner.iter().filter(|&&o| o == r).count();
            rank_sets.push(grouped.slice(start, len));
            start += len;
        }

        // Raw columns for the oracle: positions and point-major attributes.
        let positions = &all.positions;
        let mut attrs = Vec::with_capacity(all.len() * NUM_ATTRS);
        for i in 0..all.len() {
            for a in 0..NUM_ATTRS {
                attrs.push(all.value(a, i));
            }
        }
        let mut digest = Digest::default();
        for (i, &p) in positions.iter().enumerate() {
            digest.point(p, &attrs[i * NUM_ATTRS..(i + 1) * NUM_ATTRS]);
        }
        let queries = build_queries(positions, &attrs, &digest);
        Inputs {
            particles,
            grid,
            rank_sets,
            queries,
        }
    }
}

/// `q`-quantile of attribute `a` over every particle.
fn attr_quantile(attrs: &[f64], a: usize, q: f64) -> f64 {
    let mut col: Vec<f64> = attrs.iter().skip(a).step_by(NUM_ATTRS).copied().collect();
    let k = ((col.len() - 1) as f64 * q) as usize;
    *col.select_nth_unstable_by(k, |x, y| x.total_cmp(y)).1
}

/// Half-width of the cube centred on `c` that holds `want` of `positions`:
/// the `want`-th smallest Chebyshev distance to `c`.
fn half_width_holding(positions: impl Iterator<Item = Vec3>, c: Vec3, want: usize) -> f32 {
    let mut dist: Vec<f32> = positions
        .map(|p| {
            (p.x - c.x)
                .abs()
                .max((p.y - c.y).abs())
                .max((p.z - c.z).abs())
        })
        .collect();
    let k = want.clamp(1, dist.len()) - 1;
    *dist.select_nth_unstable_by(k, |x, y| x.total_cmp(y)).1
}

/// The centres of the boxes: particles of a reference realisation of the
/// universe, so boxes land where the data is in every realisation.
///
/// A cube that must hold 3 % of the particles is small in a halo core and
/// huge around a background particle, and what it costs is quantised by the
/// treelets it touches (a halo core is one big treelet). Sixteen freshly
/// drawn places per seed give every seed a different mix of cheap and dear
/// boxes and a class median that jumps between them — spread that says
/// nothing about the code. So the places belong to the universe, not to
/// the seed: 256 candidates from the reference realisation are ranked by
/// the half-width their cube needs there and every sixteenth is taken, from
/// the most compact to the widest. The seed then sizes each cube against
/// its own particles. The result is in bit-reversed rank order, so any four
/// consecutive boxes (one cycle) span that range.
fn box_centres() -> Vec<Vec3> {
    const REFERENCE_PARTICLES: usize = 16_384;
    let universe = Cosmology::new(REFERENCE_PARTICLES as u64, HALOS, UNIVERSE);
    let reference = universe.generate_rank(&universe.grid(1), 0).positions;
    let want = (REFERENCE_PARTICLES as f64 * BOX_FRACTION) as usize;
    let mut ranked: Vec<(f32, Vec3)> = reference[..BOX_CANDIDATES]
        .iter()
        .map(|&c| (half_width_holding(reference.iter().copied(), c, want), c))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let stride = BOX_CANDIDATES / BOXES;
    (0..BOXES)
        .map(|i| {
            let rank = (i as u32).reverse_bits() >> (32 - BOXES.trailing_zeros());
            ranked[rank as usize * stride + stride / 2].1
        })
        .collect()
}

fn oracle(positions: &[Vec3], attrs: &[f64], q: &Query) -> Expect {
    let mut d = Digest::default();
    for (i, &p) in positions.iter().enumerate() {
        if q.bounds.as_ref().is_some_and(|b| !b.contains_point(p)) {
            continue;
        }
        let row = &attrs[i * NUM_ATTRS..(i + 1) * NUM_ATTRS];
        if q.filters
            .iter()
            .all(|f| row[f.attr] >= f.lo && row[f.attr] <= f.hi)
        {
            d.point(p, row);
        }
    }
    Expect::Oracle {
        count: d.count,
        multiset: d.multiset,
    }
}

fn build_queries(positions: &[Vec3], attrs: &[f64], all: &Digest) -> QueryList {
    let n = positions.len();
    let want = (n as f64 * BOX_FRACTION).round() as usize;

    // filter-lo: local_density in its top 2 % (few matches: the index plan
    // wins); filter-hi: mass in its lower 50 % (many: the bitmap plan wins).
    let density_lo = attr_quantile(attrs, ATTR_DENSITY, 0.98);
    let density_hi = attr_quantile(attrs, ATTR_DENSITY, 1.0);
    let mass_lo = attr_quantile(attrs, ATTR_MASS, 0.0);
    let mass_hi = attr_quantile(attrs, ATTR_MASS, 0.5);

    let mut boxes = Vec::with_capacity(BOXES);
    let mut filter_lo = Vec::with_capacity(BOXES);
    let mut filter_hi = Vec::with_capacity(BOXES);
    for centre in box_centres() {
        // Sized by content, not by volume: every box returns the same
        // number of points although the halos differ in density.
        let h = half_width_holding(positions.iter().copied(), centre, want);
        let bounds = Aabb::new(centre - Vec3::splat(h), centre + Vec3::splat(h));
        let spec = |class, query: Query| Spec {
            class,
            expect: oracle(positions, attrs, &query),
            query,
        };
        boxes.push(spec(Class::Box, Query::new().with_bounds(bounds)));
        filter_lo.push(spec(
            Class::FilterLo,
            Query::new()
                .with_bounds(bounds)
                .with_filter(ATTR_DENSITY, density_lo, density_hi),
        ));
        filter_hi.push(spec(
            Class::FilterHi,
            Query::new()
                .with_bounds(bounds)
                .with_filter(ATTR_MASS, mass_lo, mass_hi),
        ));
    }
    QueryList {
        coarse: Spec {
            class: Class::Coarse,
            query: Query::new().with_quality(0.1),
            expect: Expect::Pending,
        },
        refine: Spec {
            class: Class::Refine,
            query: Query::new().with_prev_quality(0.1).with_quality(0.4),
            expect: Expect::Pending,
        },
        full: Spec {
            class: Class::Full,
            query: Query::new(),
            expect: Expect::Oracle {
                count: all.count,
                multiset: all.multiset,
            },
        },
        boxes,
        filter_lo,
        filter_hi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_boxes() {
        let a = Inputs::generate(4000, 11);
        let b = Inputs::generate(4000, 11);
        let c = Inputs::generate(4000, 12);
        // `full` carries the digest of every particle.
        assert_eq!(a.queries.encode(), b.queries.encode());
        assert_eq!(a.queries.full.expect, b.queries.full.expect);
        assert_ne!(a.queries.encode(), c.queries.encode());
        assert_ne!(a.queries.full.expect, c.queries.full.expect);
        let bounds = |i: &Inputs| {
            i.queries
                .boxes
                .iter()
                .map(|s| s.query.bounds)
                .collect::<Vec<_>>()
        };
        assert_ne!(bounds(&a), bounds(&c));
    }

    #[test]
    fn rank_sets_partition_the_particles() {
        let inp = Inputs::generate(3000, 5);
        assert_eq!(inp.rank_sets.len(), RANKS);
        assert_eq!(
            inp.rank_sets.iter().map(ParticleSet::len).sum::<usize>(),
            3000
        );
        for (r, set) in inp.rank_sets.iter().enumerate() {
            assert!(set
                .positions
                .iter()
                .all(|&p| inp.grid.rank_of_point(p) == r));
        }
        assert!(matches!(
            inp.queries.full.expect,
            Expect::Oracle { count: 3000, .. }
        ));
    }

    #[test]
    fn boxes_hold_the_requested_share_and_filters_narrow_them() {
        let inp = Inputs::generate(5000, 3);
        let count = |s: &Spec| match s.expect {
            Expect::Oracle { count, .. } => count,
            other => panic!("expected an oracle count, got {other:?}"),
        };
        for i in 0..BOXES {
            let b = count(&inp.queries.boxes[i]);
            // Exactly the requested count unless ties sit on the boundary.
            assert!((150..=160).contains(&b), "box {i} holds {b}");
            assert!(count(&inp.queries.filter_lo[i]) < b / 4);
            let hi = count(&inp.queries.filter_hi[i]);
            assert!(hi > b / 4 && hi < b, "filter-hi {i}: {hi} of {b}");
        }
    }

    #[test]
    fn cycles_rotate_through_every_box() {
        let inp = Inputs::generate(2000, 1);
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..4 {
            let cycle = inp.queries.cycle(c);
            assert_eq!(cycle.iter().filter(|s| s.class == Class::Box).count(), 4);
            assert_eq!(
                cycle.iter().filter(|s| s.class == Class::FilterLo).count(),
                2
            );
            assert_eq!(
                cycle.iter().filter(|s| s.class == Class::FilterHi).count(),
                2
            );
            for s in cycle.iter().filter(|s| s.class == Class::Box) {
                seen.insert(format!("{:?}", s.query.bounds));
            }
        }
        assert_eq!(seen.len(), BOXES);
        assert_eq!(inp.queries.session().len(), 9 + 13 + 5);
    }

    #[test]
    fn digest_multiset_ignores_order_ordered_does_not() {
        let p = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)];
        let a = [[1.0; NUM_ATTRS], [2.0; NUM_ATTRS]];
        let mut fwd = Digest::default();
        let mut rev = Digest::default();
        for i in [0, 1] {
            fwd.point(p[i], &a[i]);
            rev.point(p[1 - i], &a[1 - i]);
        }
        assert_eq!(fwd.multiset, rev.multiset);
        assert_ne!(fwd.ordered, rev.ordered);
        assert_eq!(fwd.count, 2);
    }
}
