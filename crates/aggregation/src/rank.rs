//! Per-rank information gathered at rank 0 before tree construction.

use bat_geom::Aabb;
use bat_layout::format::{get_aabb, put_aabb};
use bat_wire::{Decoder, Encoder, WireResult};

/// What rank 0 knows about each rank when building the aggregation tree:
/// its spatial bounds in the simulation domain and how many particles it
/// currently owns (paper Fig. 1a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankInfo {
    /// Rank id in `0..size`.
    pub rank: u32,
    /// The rank's spatial bounds in the simulation domain.
    pub bounds: Aabb,
    /// Particles the rank currently owns.
    pub particles: u64,
}

impl RankInfo {
    /// Construct from parts.
    pub fn new(rank: u32, bounds: Aabb, particles: u64) -> RankInfo {
        RankInfo {
            rank,
            bounds,
            particles,
        }
    }

    /// Payload bytes this rank contributes at `bytes_per_particle`.
    pub fn bytes(&self, bytes_per_particle: u64) -> u64 {
        self.particles * bytes_per_particle
    }

    /// Serialize for the gather at rank 0.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.rank);
        put_aabb(enc, &self.bounds);
        enc.put_u64(self.particles);
    }

    /// Inverse of [`RankInfo::encode`].
    pub fn decode(dec: &mut Decoder) -> WireResult<RankInfo> {
        let rank = dec.get_u32("rank id")?;
        let bounds = get_aabb(dec)?;
        let particles = dec.get_u64("rank particles")?;
        Ok(RankInfo {
            rank,
            bounds,
            particles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::Vec3;

    #[test]
    fn roundtrip() {
        let info = RankInfo::new(7, Aabb::new(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0)), 123_456);
        let mut e = Encoder::new();
        info.encode(&mut e);
        let buf = e.finish();
        let out = RankInfo::decode(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(out, info);
    }

    #[test]
    fn byte_accounting() {
        let info = RankInfo::new(0, Aabb::unit(), 1000);
        assert_eq!(info.bytes(124), 124_000);
    }
}
