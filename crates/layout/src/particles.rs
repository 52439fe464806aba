//! SoA particle container: positions plus typed attribute arrays.

use crate::attr::{AttributeArray, AttributeDesc};
use crate::columns::ColumnarParticles;
use bat_geom::{Aabb, Vec3};
use bat_wire::{Decoder, Encoder, WireError, WireResult};
use rayon::prelude::*;
use std::sync::Arc;

/// A set of particles in structure-of-arrays form.
///
/// This is the unit of data a rank hands to the write pipeline and the unit
/// an aggregator assembles from its leaf's ranks. Invariant: every attribute
/// array has exactly `positions.len()` elements (checked by [`ParticleSet::validate`]
/// and maintained by the mutators).
///
/// The schema is reference-counted: cloning, slicing, and permuting a set
/// shares one `Arc<[AttributeDesc]>` instead of reallocating the descriptor
/// table per copy (the write pipeline used to clone it once per rank).
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleSet {
    /// Particle positions (3 × f32 each, the paper's data model).
    pub positions: Vec<Vec3>,
    descs: Arc<[AttributeDesc]>,
    arrays: Vec<AttributeArray>,
}

impl ParticleSet {
    /// Empty set with the given attribute schema.
    pub fn new(descs: impl Into<Arc<[AttributeDesc]>>) -> ParticleSet {
        let descs = descs.into();
        let arrays = descs.iter().map(|d| AttributeArray::new(d.dtype)).collect();
        ParticleSet {
            positions: Vec::new(),
            descs,
            arrays,
        }
    }

    /// Empty set with reserved capacity.
    pub fn with_capacity(descs: impl Into<Arc<[AttributeDesc]>>, cap: usize) -> ParticleSet {
        let descs = descs.into();
        let arrays = descs
            .iter()
            .map(|d| AttributeArray::with_capacity(d.dtype, cap))
            .collect();
        ParticleSet {
            positions: Vec::with_capacity(cap),
            descs,
            arrays,
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the set holds no particles.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The attribute schema.
    pub fn descs(&self) -> &[AttributeDesc] {
        &self.descs
    }

    /// Shared handle to the schema (refcount bump, no clone of the table).
    pub fn descs_arc(&self) -> Arc<[AttributeDesc]> {
        self.descs.clone()
    }

    /// Number of attributes.
    pub fn num_attrs(&self) -> usize {
        self.descs.len()
    }

    /// Attribute array `a`.
    pub fn attr(&self, a: usize) -> &AttributeArray {
        &self.arrays[a]
    }

    /// Index of the attribute named `name`.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.descs.iter().position(|d| d.name == name)
    }

    /// Append one particle with its attribute values (one per attribute, in
    /// schema order; `f32` attributes are narrowed).
    pub fn push(&mut self, pos: Vec3, values: &[f64]) {
        debug_assert_eq!(values.len(), self.arrays.len(), "one value per attribute");
        self.positions.push(pos);
        for (arr, &v) in self.arrays.iter_mut().zip(values) {
            arr.push(v);
        }
    }

    /// Append every particle of `other`. Panics if the schemas differ.
    pub fn append(&mut self, other: &ParticleSet) {
        assert_eq!(self.descs, other.descs, "schema mismatch in append");
        self.positions.extend_from_slice(&other.positions);
        for (a, b) in self.arrays.iter_mut().zip(&other.arrays) {
            a.extend_from(b);
        }
    }

    /// Bulk-append every particle of a columnar view (the receiver-side
    /// gather of the shuffle). Unlike [`ParticleSet::append`] this takes
    /// untrusted wire data, so a schema mismatch is an error, not a panic.
    /// The bytes copied here are charged to `shuffle.bytes_copied`.
    pub fn extend_from_columns(&mut self, cols: &ColumnarParticles) -> WireResult<()> {
        if self.descs() != cols.descs() {
            return Err(WireError::BadTag {
                what: "columnar frame schema",
                tag: cols.descs().len() as u64,
            });
        }
        crate::columns::extend_positions_raw(cols.positions_raw(), &mut self.positions)?;
        for (a, arr) in self.arrays.iter_mut().enumerate() {
            arr.extend_from_raw(cols.attr_raw(a), "columnar attribute column")?;
        }
        bat_obs::counter_add("shuffle.bytes_copied", cols.raw_bytes() as u64);
        Ok(())
    }

    /// Bytes per particle under this schema (3 × f32 position + attributes).
    pub fn bytes_per_particle(&self) -> usize {
        12 + self.descs.iter().map(|d| d.dtype.size()).sum::<usize>()
    }

    /// Total raw payload bytes for this set.
    pub fn raw_bytes(&self) -> usize {
        self.len() * self.bytes_per_particle()
    }

    /// Tight bounds over the particle positions (empty box when no particles).
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(&self.positions)
    }

    /// Attribute value of particle `i` for attribute `a`, widened to f64.
    #[inline]
    pub fn value(&self, a: usize, i: usize) -> f64 {
        self.arrays[a].get(i)
    }

    /// Check the SoA invariant; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        for (d, a) in self.descs.iter().zip(&self.arrays) {
            if a.len() != self.positions.len() {
                return Err(format!(
                    "attribute '{}' has {} elements for {} particles",
                    d.name,
                    a.len(),
                    self.positions.len()
                ));
            }
            if a.dtype() != d.dtype {
                return Err(format!("attribute '{}' array type mismatch", d.name));
            }
        }
        Ok(())
    }

    /// Reordered copy: output particle `i` is input particle `perm[i]`.
    /// The gathers run in parallel — each output slot depends on exactly
    /// one input slot, so the parallel copy is trivially deterministic.
    /// The attribute arrays are one batch of whole-array tasks (their own
    /// gathers run inline once the helpers are taken), so a permute runs
    /// two batches that spawn helpers, not one per array.
    pub fn permute(&self, perm: &[u32]) -> ParticleSet {
        debug_assert_eq!(perm.len(), self.len());
        ParticleSet {
            positions: perm
                .par_iter()
                .map(|&i| self.positions[i as usize])
                .collect(),
            descs: self.descs.clone(),
            arrays: self.arrays.par_iter().map(|a| a.permute(perm)).collect(),
        }
    }

    /// Copy of the contiguous subrange `[start, start+len)`.
    pub fn slice(&self, start: usize, len: usize) -> ParticleSet {
        ParticleSet {
            positions: self.positions[start..start + len].to_vec(),
            descs: self.descs.clone(),
            arrays: self.arrays.iter().map(|a| a.slice(start, len)).collect(),
        }
    }

    /// Serialize schema + data (the transfer payload of the write pipeline).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.descs.len() as u64);
        for d in self.descs.iter() {
            d.encode(enc);
        }
        enc.put_u64(self.positions.len() as u64);
        for p in &self.positions {
            enc.put_f32(p.x);
            enc.put_f32(p.y);
            enc.put_f32(p.z);
        }
        for a in &self.arrays {
            a.encode(enc);
        }
    }

    /// Deserialize a set encoded by [`ParticleSet::encode`].
    pub fn decode(dec: &mut Decoder) -> WireResult<ParticleSet> {
        let na = dec.get_usize("attr count")?;
        let mut descs = Vec::with_capacity(na);
        for _ in 0..na {
            descs.push(AttributeDesc::decode(dec)?);
        }
        let n = dec.get_usize("particle count")?;
        // Guard against hostile counts before allocating.
        if (n as u128) * 12 > dec.remaining() as u128 {
            return Err(WireError::BadLength {
                what: "particle positions",
                len: n as u64,
                remaining: dec.remaining(),
            });
        }
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            let x = dec.get_f32("pos.x")?;
            let y = dec.get_f32("pos.y")?;
            let z = dec.get_f32("pos.z")?;
            positions.push(Vec3::new(x, y, z));
        }
        let mut arrays = Vec::with_capacity(na);
        for d in &descs {
            let a = AttributeArray::decode(dec, d.dtype)?;
            if a.len() != n {
                return Err(WireError::BadLength {
                    what: "attribute array length",
                    len: a.len() as u64,
                    remaining: dec.remaining(),
                });
            }
            arrays.push(a);
        }
        Ok(ParticleSet {
            positions,
            descs: descs.into(),
            arrays,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttributeType;

    fn sample() -> ParticleSet {
        let mut s = ParticleSet::new(vec![AttributeDesc::f64("mass"), AttributeDesc::f32("temp")]);
        s.push(Vec3::new(0.0, 1.0, 2.0), &[10.0, 100.0]);
        s.push(Vec3::new(3.0, 4.0, 5.0), &[20.0, 200.0]);
        s.push(Vec3::new(-1.0, 0.0, 1.0), &[30.0, 300.0]);
        s
    }

    #[test]
    fn push_and_access() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.value(0, 1), 20.0);
        assert_eq!(s.value(1, 2), 300.0);
        assert_eq!(s.attr_index("temp"), Some(1));
        assert_eq!(s.attr_index("nope"), None);
        s.validate().unwrap();
    }

    #[test]
    fn byte_accounting() {
        let s = sample();
        // 12 (pos) + 8 (f64) + 4 (f32) per particle.
        assert_eq!(s.bytes_per_particle(), 24);
        assert_eq!(s.raw_bytes(), 72);
    }

    #[test]
    fn bounds() {
        let b = sample().bounds();
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 1.0));
        assert_eq!(b.max, Vec3::new(3.0, 4.0, 5.0));
    }

    #[test]
    fn append_merges() {
        let mut a = sample();
        let b = sample();
        a.append(&b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.value(0, 4), 20.0);
        a.validate().unwrap();
    }

    #[test]
    #[should_panic]
    fn append_schema_mismatch_panics() {
        let mut a = sample();
        let b = ParticleSet::new(vec![AttributeDesc::f64("other")]);
        a.append(&b);
    }

    #[test]
    fn permute_keeps_rows_together() {
        let s = sample();
        let p = s.permute(&[2, 0, 1]);
        assert_eq!(p.positions[0], Vec3::new(-1.0, 0.0, 1.0));
        assert_eq!(p.value(0, 0), 30.0);
        assert_eq!(p.value(1, 0), 300.0);
        p.validate().unwrap();
    }

    #[test]
    fn slice_subrange() {
        let s = sample();
        let t = s.slice(1, 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, 0), 20.0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let mut e = Encoder::new();
        s.encode(&mut e);
        let buf = e.finish();
        let out = ParticleSet::decode(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(out, s);
    }

    #[test]
    fn decode_rejects_truncation() {
        let s = sample();
        let mut e = Encoder::new();
        s.encode(&mut e);
        let buf = e.finish();
        for cut in [1, 10, buf.len() - 1] {
            assert!(ParticleSet::decode(&mut Decoder::new(&buf[..cut])).is_err());
        }
    }

    #[test]
    fn empty_set_roundtrip() {
        let s = ParticleSet::new(vec![AttributeDesc::new("x", AttributeType::F32)]);
        let mut e = Encoder::new();
        s.encode(&mut e);
        let buf = e.finish();
        let out = ParticleSet::decode(&mut Decoder::new(&buf)).unwrap();
        assert!(out.is_empty());
        assert!(out.bounds().is_empty());
    }
}
