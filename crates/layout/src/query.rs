//! Query specification and the quality → depth mapping (paper §V).
//!
//! A visualization read takes a desired quality level, an optional bounding
//! box, and a set of attribute range filters; the reader invokes a callback
//! for every matching point. Progressive reads additionally pass the
//! previously read quality so only the *new* points for the quality
//! increment are processed (§V-B).

use bat_geom::{Aabb, Vec3};

/// One attribute range filter: keep particles with `lo <= value <= hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrFilter {
    /// Attribute index in the file's schema.
    pub attr: usize,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

/// A visualization/analysis read request.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Spatial filter; `None` reads the whole domain.
    pub bounds: Option<Aabb>,
    /// Attribute filters, ANDed together.
    pub filters: Vec<AttrFilter>,
    /// Desired quality in `[0, 1]`: 0 loads nothing, 1 the entire data set.
    pub quality: f64,
    /// Previously loaded quality for progressive reads (0 = fresh read).
    pub prev_quality: f64,
    /// Degraded-mode opt-in: the caller accepts results from surviving
    /// shards when part of the fabric is unreachable. A partial result is
    /// always announced explicitly (the stream protocol's `PARTIAL` frame
    /// with served/total leaf counts) — never silently passed off as
    /// complete. Without this flag, shard exhaustion is a typed error.
    pub allow_partial: bool,
}

impl Default for Query {
    fn default() -> Query {
        Query::new()
    }
}

impl Query {
    /// A full-quality, unfiltered read.
    pub fn new() -> Query {
        Query {
            bounds: None,
            filters: Vec::new(),
            quality: 1.0,
            prev_quality: 0.0,
            allow_partial: false,
        }
    }

    /// Restrict to a bounding box.
    pub fn with_bounds(mut self, b: Aabb) -> Query {
        self.bounds = Some(b);
        self
    }

    /// Add an attribute range filter.
    pub fn with_filter(mut self, attr: usize, lo: f64, hi: f64) -> Query {
        self.filters.push(AttrFilter { attr, lo, hi });
        self
    }

    /// Set the desired quality level.
    pub fn with_quality(mut self, q: f64) -> Query {
        self.quality = q;
        self
    }

    /// Set the progressive baseline (quality already loaded).
    pub fn with_prev_quality(mut self, q: f64) -> Query {
        self.prev_quality = q;
        self
    }

    /// Opt into degraded-mode serving (see [`Query::allow_partial`]).
    pub fn with_allow_partial(mut self, allow: bool) -> Query {
        self.allow_partial = allow;
        self
    }

    /// Validate the query against a file schema with `num_attrs`
    /// attributes, normalizing what can be normalized and rejecting what
    /// cannot:
    ///
    /// - `quality`/`prev_quality` are clamped into `[0, 1]` (NaN → 0),
    ///   mirroring what [`quality_to_depth`] would do silently;
    /// - a filter whose `attr` is outside the schema, or whose range is
    ///   empty (`lo > hi`, or a NaN endpoint), is a typed error — such a
    ///   filter can never match, so accepting it silently returns an empty
    ///   result for what is almost certainly a caller bug.
    pub fn validated(mut self, num_attrs: usize) -> Result<Query, QueryError> {
        let clamp = |q: f64| if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        self.quality = clamp(self.quality);
        self.prev_quality = clamp(self.prev_quality);
        for f in &self.filters {
            if f.attr >= num_attrs {
                return Err(QueryError::AttrOutOfRange {
                    attr: f.attr,
                    num_attrs,
                });
            }
            if f.lo.is_nan() || f.hi.is_nan() || f.lo > f.hi {
                return Err(QueryError::EmptyFilterRange {
                    attr: f.attr,
                    lo: f.lo,
                    hi: f.hi,
                });
            }
        }
        Ok(self)
    }
}

/// A query that cannot be planned against the target schema.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A filter names an attribute the file does not have.
    AttrOutOfRange {
        /// Offending attribute index.
        attr: usize,
        /// Number of attributes in the file's schema.
        num_attrs: usize,
    },
    /// A filter's range is empty (`lo > hi`) or has a NaN endpoint, so it
    /// can never match any particle.
    EmptyFilterRange {
        /// Attribute the filter targets.
        attr: usize,
        /// Lower bound as given.
        lo: f64,
        /// Upper bound as given.
        hi: f64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::AttrOutOfRange { attr, num_attrs } => write!(
                f,
                "filter attribute {attr} out of range (file has {num_attrs} attributes)"
            ),
            QueryError::EmptyFilterRange { attr, lo, hi } => write!(
                f,
                "filter on attribute {attr} has an empty range [{lo}, {hi}]"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A matching point handed to the query callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointRecord<'a> {
    /// Particle position.
    pub position: Vec3,
    /// All attribute values of the point (f32 attributes widened), in the
    /// file's schema order.
    pub attrs: &'a [f64],
    /// Global particle index within the file.
    pub index: u64,
}

/// Map a quality level to `(depth, fraction)`: treelet nodes at depth less
/// than `depth` contribute all of their stored particles, nodes *at*
/// `depth` contribute `ceil(fraction × count)` of them, and deeper nodes
/// contribute nothing.
///
/// The paper remaps quality with a log scale because the particle count
/// roughly doubles per level (§V-B): quality `q` maps to an effective depth
/// `log2(1 + q·(2^(D+1) − 2))` over max depth `D`, so equal quality steps
/// feel like equal visual refinement steps.
pub fn quality_to_depth(quality: f64, max_depth: u32) -> (u32, f64) {
    let q = quality.clamp(0.0, 1.0);
    if q >= 1.0 {
        return (max_depth, 1.0);
    }
    if q <= 0.0 {
        return (0, 0.0);
    }
    if max_depth == 0 {
        // Single-level treelets: quality degenerates to a plain fraction.
        return (0, q);
    }
    let d = max_depth.min(60);
    let span = (1u64 << (d + 1)) as f64 - 2.0;
    let eff = (1.0 + q * span).log2();
    let depth = (eff.floor() as u32).min(max_depth);
    let frac = (eff - depth as f64).clamp(0.0, 1.0);
    (depth, frac)
}

/// Number of particles a node with `count` stored particles at `depth`
/// contributes under `(limit_depth, fraction)` from [`quality_to_depth`].
#[inline]
pub fn contribution(count: u32, depth: u32, limit_depth: u32, fraction: f64) -> u32 {
    if depth < limit_depth {
        count
    } else if depth == limit_depth {
        (count as f64 * fraction).ceil() as u32
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_extremes() {
        assert_eq!(quality_to_depth(0.0, 10), (0, 0.0));
        assert_eq!(quality_to_depth(1.0, 10), (10, 1.0));
        assert_eq!(quality_to_depth(2.0, 10), (10, 1.0)); // clamped
        assert_eq!(quality_to_depth(-1.0, 10), (0, 0.0)); // clamped
    }

    #[test]
    fn quality_monotonic_in_depth() {
        let mut prev = (0, 0.0);
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let (d, f) = quality_to_depth(q, 12);
            assert!(
                d > prev.0 || (d == prev.0 && f >= prev.1 - 1e-12),
                "quality must be monotone: {prev:?} -> {:?} at q={q}",
                (d, f)
            );
            prev = (d, f);
        }
    }

    #[test]
    fn log_remap_spreads_depths() {
        // The log remap should hit every depth across the quality range,
        // not jump straight to the deepest levels.
        let max = 8;
        let mut depths = std::collections::HashSet::new();
        for i in 0..=1000 {
            let (d, _) = quality_to_depth(i as f64 / 1000.0, max);
            depths.insert(d);
        }
        assert_eq!(depths.len() as u32, max + 1, "{depths:?}");
    }

    #[test]
    fn zero_depth_tree() {
        assert_eq!(quality_to_depth(0.5, 0), (0, 0.5));
        assert_eq!(quality_to_depth(1.0, 0), (0, 1.0));
    }

    #[test]
    fn contribution_rules() {
        assert_eq!(contribution(100, 2, 5, 0.3), 100); // above the limit depth
        assert_eq!(contribution(100, 5, 5, 0.3), 30); // at the limit
        assert_eq!(contribution(100, 5, 5, 0.0), 0);
        assert_eq!(contribution(100, 5, 5, 1.0), 100);
        assert_eq!(contribution(100, 7, 5, 0.9), 0); // below
        assert_eq!(contribution(7, 3, 3, 0.5), 4); // ceil
    }

    #[test]
    fn progressive_contributions_are_incremental() {
        // For q1 <= q2, a node's contribution under q1 never exceeds q2's.
        for max_depth in [0u32, 3, 8, 14] {
            for count in [1u32, 7, 128] {
                for depth in 0..=max_depth {
                    let mut prev = 0;
                    for i in 0..=50 {
                        let q = i as f64 / 50.0;
                        let (d, f) = quality_to_depth(q, max_depth);
                        let c = contribution(count, depth, d, f);
                        assert!(c >= prev, "contribution shrank at q={q}");
                        prev = c;
                    }
                    assert_eq!(prev, count, "q=1 must include everything");
                }
            }
        }
    }

    #[test]
    fn validated_clamps_quality_and_rejects_bad_filters() {
        let q = Query::new()
            .with_quality(3.5)
            .with_prev_quality(f64::NAN)
            .validated(4)
            .unwrap();
        assert_eq!(q.quality, 1.0);
        assert_eq!(q.prev_quality, 0.0);

        assert_eq!(
            Query::new().with_filter(4, 0.0, 1.0).validated(4),
            Err(QueryError::AttrOutOfRange {
                attr: 4,
                num_attrs: 4
            })
        );
        assert!(matches!(
            Query::new().with_filter(1, 2.0, 1.0).validated(4),
            Err(QueryError::EmptyFilterRange { attr: 1, .. })
        ));
        assert!(matches!(
            Query::new().with_filter(0, f64::NAN, 1.0).validated(4),
            Err(QueryError::EmptyFilterRange { .. })
        ));
        // lo == hi is a legal point query.
        assert!(Query::new().with_filter(0, 1.0, 1.0).validated(4).is_ok());
    }

    #[test]
    fn builder_pattern() {
        let q = Query::new()
            .with_bounds(Aabb::unit())
            .with_filter(2, -1.0, 1.0)
            .with_quality(0.5)
            .with_prev_quality(0.25);
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.quality, 0.5);
        assert_eq!(q.prev_quality, 0.25);
        assert!(q.bounds.is_some());
    }
}

impl Query {
    /// Serialize for shipping to a read aggregator (paper §IV-B uses the
    /// query mechanism for distributed in situ access).
    pub fn encode(&self, enc: &mut bat_wire::Encoder) {
        match &self.bounds {
            Some(b) => {
                enc.put_bool(true);
                crate::format::put_aabb(enc, b);
            }
            None => enc.put_bool(false),
        }
        enc.put_u64(self.filters.len() as u64);
        for f in &self.filters {
            enc.put_u64(f.attr as u64);
            enc.put_f64(f.lo);
            enc.put_f64(f.hi);
        }
        enc.put_f64(self.quality);
        enc.put_f64(self.prev_quality);
        enc.put_bool(self.allow_partial);
    }

    /// Inverse of [`Query::encode`].
    pub fn decode(dec: &mut bat_wire::Decoder) -> bat_wire::WireResult<Query> {
        let bounds = if dec.get_bool("query has bounds")? {
            Some(crate::format::get_aabb(dec)?)
        } else {
            None
        };
        let nf = dec.get_usize("query filter count")?;
        if nf > 1024 {
            return Err(bat_wire::WireError::BadLength {
                what: "query filter count",
                len: nf as u64,
                remaining: dec.remaining(),
            });
        }
        let mut filters = Vec::with_capacity(nf);
        for _ in 0..nf {
            filters.push(AttrFilter {
                attr: dec.get_usize("filter attr")?,
                lo: dec.get_f64("filter lo")?,
                hi: dec.get_f64("filter hi")?,
            });
        }
        let quality = dec.get_f64("query quality")?;
        let prev_quality = dec.get_f64("query prev quality")?;
        // Absent in streams written before degraded mode existed; absence
        // means the strict default.
        let allow_partial = if dec.remaining() > 0 {
            dec.get_bool("query allow partial")?
        } else {
            false
        };
        Ok(Query {
            bounds,
            filters,
            quality,
            prev_quality,
            allow_partial,
        })
    }
}

#[cfg(test)]
mod wire_tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = Query::new()
            .with_bounds(Aabb::new(Vec3::ZERO, Vec3::ONE))
            .with_filter(2, -1.5, 3.25)
            .with_filter(0, 0.0, 9.0)
            .with_quality(0.7)
            .with_prev_quality(0.3);
        let mut e = bat_wire::Encoder::new();
        q.encode(&mut e);
        let buf = e.finish();
        let out = Query::decode(&mut bat_wire::Decoder::new(&buf)).unwrap();
        assert_eq!(out, q);
    }

    #[test]
    fn boundless_query_roundtrip() {
        let q = Query::new();
        let mut e = bat_wire::Encoder::new();
        q.encode(&mut e);
        let buf = e.finish();
        let out = Query::decode(&mut bat_wire::Decoder::new(&buf)).unwrap();
        assert_eq!(out, q);
    }

    #[test]
    fn truncated_query_rejected() {
        let q = Query::new().with_filter(0, 0.0, 1.0);
        let mut e = bat_wire::Encoder::new();
        q.encode(&mut e);
        let buf = e.finish();
        assert!(Query::decode(&mut bat_wire::Decoder::new(&buf[..5])).is_err());
    }
}
