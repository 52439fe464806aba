//! The compacted BAT file format (paper §III-C3, Figure 2).
//!
//! Layout, all little-endian:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header: magic, version, counts, domain, build config       │
//! │ attribute table: name, type, local (min, max) per attr     │
//! │ shallow inner nodes: children, bounds, bitmap IDs          │
//! │ shallow leaf table: treelet offset, particle range         │
//! │ shared bitmap dictionary (unique u32 bitmaps)              │
//! │ v2 only: section codec table, (tag, stored_len) each       │
//! │ index directory (indexed files only)                       │
//! ├─── 4 KiB boundary ─────────────────────────────────────────┤
//! │ treelet 0: node records (+bitmap IDs) | positions |        │
//! │            one column per attribute                        │
//! ├─── 4 KiB boundary ─────────────────────────────────────────┤
//! │ treelet 1: ...                                             │
//! ├─── 4 KiB boundary (indexed files only) ────────────────────┤
//! │ one index blob per indexed attribute, page-aligned         │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! A treelet block is its sections back to back, in the order
//! [`TreeletLayout::sections`] lists them with their byte ranges — the one
//! description of a block that the writer, the v2 encoder and decoder, the
//! head parser, the reader's view and the size accounting all walk. A v1
//! block is that image verbatim; a v2 block stores each section coded, at
//! the length its codec table entry records, and decodes back to it.
//!
//! The head of the file (everything before the first treelet) is small and
//! parsed eagerly on open; treelets sit on page boundaries and are accessed
//! lazily through memory mapping or in-memory slices, with node records
//! decoded in place during traversal (no treelet-wide deserialization).
//!
//! Files written with `BAT_INDEX_ATTRS` additionally carry one packed
//! static B-tree blob per indexed attribute (DESIGN.md §17), page-aligned
//! after the last treelet, with a directory appended to the head recording
//! each blob's extent. Files written without indexes are byte-identical to
//! the pre-index format (the golden hashes pin this).

use crate::attr::{AttributeArray, AttributeDesc};
use crate::build::Bat;
use crate::codec::{self, Codec, SectionKind};
use crate::dict::BitmapDictionary;
use crate::radix::NodeRef;
use bat_geom::{Aabb, Vec3};
use bat_index::IndexSpec;
use bat_wire::{Decoder, Encoder, WireError, WireResult};
use rayon::prelude::*;
use std::io::{self, Write};
use std::ops::Range;

/// File magic: "BATF".
pub const MAGIC: u32 = 0x4241_5446;
/// Format version: verbatim treelet blocks.
pub const VERSION: u32 = 1;
/// Format version: per-section codec tags, compressed treelet blocks
/// (DESIGN.md §15). The head layout is identical to v1 plus a section
/// codec table appended after the dictionary.
pub const VERSION_V2: u32 = 2;
/// Treelet alignment (one page).
pub const TREELET_ALIGN: usize = 4096;

/// Attribute-index directory magic: "BIDR". The directory sits at the end
/// of the head (after the dictionary / v2 codec table) and is present only
/// when the file carries at least one index blob, so index-free files stay
/// byte-identical to the pre-index format.
pub const INDEX_DIR_MAGIC: u32 = 0x5244_4942;

/// One attribute-index directory entry: which attribute, where its packed
/// B-tree blob lives in the file, and how many leaf entries it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexDirEntry {
    /// Attribute index into the file's attribute table.
    pub attr: u32,
    /// Absolute byte offset of the blob (page-aligned, after the treelets).
    pub offset: u64,
    /// Blob length in bytes.
    pub len: u64,
    /// Leaf-entry count (== the file's particle count at build time).
    pub entries: u64,
}

impl IndexDirEntry {
    /// Encoded size: attr u32 + offset u64 + len u64 + entries u64.
    pub const BYTES: usize = 28;
}

/// Encoded directory size for `count` entries (0 when no indexes — the
/// directory is omitted entirely).
fn index_dir_bytes(count: usize) -> usize {
    if count == 0 {
        0
    } else {
        8 + count * IndexDirEntry::BYTES
    }
}

/// Fixed-size node record inside a treelet block:
/// bounds (24) + start/count/left/right/depth (20).
pub const NODE_FIXED_BYTES: usize = 44;

/// One stored treelet section: its codec tag and on-disk byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionRec {
    /// Codec tag (see the registry in [`crate::codec`]).
    pub tag: u8,
    /// Stored (possibly compressed) byte length of the section.
    pub stored_len: u32,
}

impl SectionRec {
    /// Encoded size of one table entry.
    pub const BYTES: usize = 5;
}

/// Per-treelet slice of the v2 section codec table: one [`SectionRec`] per
/// section, in block order (nodes, positions, attribute columns).
#[derive(Debug, Clone)]
pub struct TreeletCodecRec {
    /// One entry per [`TreeletLayout::sections`] item.
    pub sections: Vec<SectionRec>,
}

impl TreeletCodecRec {
    /// Total stored bytes of the treelet block (sum of section lengths).
    pub fn stored_size(&self) -> usize {
        self.sections.iter().map(|s| s.stored_len as usize).sum()
    }
}

/// Parsed file head (everything before the treelets).
#[derive(Debug, Clone)]
pub struct FileHead {
    /// Byte length of the head payload (header through dictionary); the
    /// first treelet starts at the next page boundary. Lets size accounting
    /// separate structure bytes from alignment padding exactly.
    pub head_end: u64,
    /// Total particles in the file.
    pub num_particles: u64,
    /// Bounds the Morton codes were quantized against.
    pub domain: Aabb,
    /// Shallow-tree subprefix length used by the build.
    pub subprefix_bits: u32,
    /// LOD particles per treelet inner node.
    pub lod_per_inner: u32,
    /// Maximum particles per treelet leaf.
    pub max_leaf: u32,
    /// Deepest treelet depth in the file.
    pub max_treelet_depth: u32,
    /// Attribute schema.
    pub descs: Vec<AttributeDesc>,
    /// Aggregator-local `(min, max)` per attribute.
    pub attr_ranges: Vec<(f64, f64)>,
    /// Shallow inner nodes.
    pub inners: Vec<ShallowInnerRec>,
    /// Shallow leaves (treelet references).
    pub leaves: Vec<LeafRec>,
    /// The shared bitmap dictionary.
    pub dict: BitmapDictionary,
    /// Format version of the file ([`VERSION`] or [`VERSION_V2`]).
    pub version: u32,
    /// Attribute-index directory: one entry per indexed attribute, empty
    /// when the file carries no indexes *or* the directory failed
    /// validation (the file is then served with indexes ignored).
    pub indexes: Vec<IndexDirEntry>,
    /// v2 only: the per-treelet section codec table (`None` for v1, whose
    /// blocks are verbatim [`TreeletLayout`] images).
    pub codecs: Option<Vec<TreeletCodecRec>>,
}

impl FileHead {
    /// True for a version-2 (compressed-treelet) file.
    pub fn is_v2(&self) -> bool {
        self.codecs.is_some()
    }

    /// The treelet's codec table entry, when the file is v2.
    pub fn codec_rec(&self, treelet: usize) -> Option<&TreeletCodecRec> {
        self.codecs.as_ref().and_then(|c| c.get(treelet))
    }

    /// On-disk byte size of a treelet block: the codec table's stored size
    /// for v2, the exact [`TreeletLayout`] size for v1.
    pub fn stored_block_size(&self, treelet: usize) -> Option<usize> {
        match &self.codecs {
            Some(c) => c.get(treelet).map(TreeletCodecRec::stored_size),
            None => self.leaves.get(treelet).map(|l| {
                TreeletLayout::compute(l.num_nodes as usize, l.num_particles as usize, &self.descs)
                    .size
            }),
        }
    }

    /// The directory entry for attribute `attr`, when it is indexed.
    pub fn index_for(&self, attr: usize) -> Option<&IndexDirEntry> {
        self.indexes.iter().find(|e| e.attr as usize == attr)
    }
}

/// A shallow inner node as stored in the file.
#[derive(Debug, Clone)]
pub struct ShallowInnerRec {
    /// Left child reference.
    pub left: NodeRef,
    /// Right child reference.
    pub right: NodeRef,
    /// Conservative cell bounds for culling.
    pub bounds: Aabb,
    /// One dictionary ID per attribute.
    pub bitmap_ids: Vec<u16>,
}

impl ShallowInnerRec {
    /// Record size for `na` attributes.
    pub const fn byte_size(na: usize) -> usize {
        32 + 2 * na
    }

    /// Serialize the record (writer and reader share this definition).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.left.pack());
        enc.put_u32(self.right.pack());
        put_aabb(enc, &self.bounds);
        for &id in &self.bitmap_ids {
            enc.put_u16(id);
        }
    }

    /// Inverse of [`ShallowInnerRec::encode`] for `na` attributes.
    pub fn decode(dec: &mut Decoder, na: usize) -> WireResult<ShallowInnerRec> {
        let left = NodeRef::unpack(dec.get_u32("inner left")?);
        let right = NodeRef::unpack(dec.get_u32("inner right")?);
        let bounds = get_aabb(dec)?;
        let mut bitmap_ids = Vec::with_capacity(na);
        for _ in 0..na {
            bitmap_ids.push(dec.get_u16("inner bitmap id")?);
        }
        Ok(ShallowInnerRec {
            left,
            right,
            bounds,
            bitmap_ids,
        })
    }
}

/// A shallow leaf (treelet reference) as stored in the file.
#[derive(Debug, Clone, Copy)]
pub struct LeafRec {
    /// Absolute byte offset of the treelet block.
    pub offset: u64,
    /// First particle of the treelet (file-global index).
    pub first_particle: u64,
    /// Particle count of the treelet.
    pub num_particles: u32,
    /// Number of nodes in the treelet (lets readers size scans without
    /// touching the block).
    pub num_nodes: u32,
    /// Deepest node depth inside the treelet.
    pub max_depth: u32,
}

impl LeafRec {
    /// Fixed record size.
    pub const BYTES: usize = 28;

    /// Serialize the record (writer and reader share this definition).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.offset);
        enc.put_u64(self.first_particle);
        enc.put_u32(self.num_particles);
        enc.put_u32(self.num_nodes);
        enc.put_u32(self.max_depth);
    }

    /// Inverse of [`LeafRec::encode`]; `file_len` bounds the offset check.
    pub fn decode(dec: &mut Decoder, file_len: usize) -> WireResult<LeafRec> {
        let offset = dec.get_u64("treelet offset")?;
        let first_particle = dec.get_u64("first particle")?;
        let num_particles = dec.get_u32("treelet particles")?;
        let num_nodes = dec.get_u32("treelet nodes")?;
        let max_depth = dec.get_u32("treelet depth")?;
        if offset as usize >= file_len.max(1) {
            return Err(WireError::BadLength {
                what: "treelet offset",
                len: offset,
                remaining: file_len,
            });
        }
        Ok(LeafRec {
            offset,
            first_particle,
            num_particles,
            num_nodes,
            max_depth,
        })
    }
}

/// The one wire form of an [`Aabb`]: `min` then `max`, three little-endian
/// `f32`s each. Every file head, `.batmeta`, shuffle assignment, rank
/// report and shipped [`Query`](crate::Query) encodes boxes through this
/// pair.
pub fn put_aabb(enc: &mut Encoder, b: &Aabb) {
    for v in [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z] {
        enc.put_f32(v);
    }
}

/// Inverse of [`put_aabb`].
pub fn get_aabb(dec: &mut Decoder) -> WireResult<Aabb> {
    let mut v = [0.0f32; 6];
    for x in &mut v {
        *x = dec.get_f32("aabb")?;
    }
    Ok(Aabb::new(
        Vec3::new(v[0], v[1], v[2]),
        Vec3::new(v[3], v[4], v[5]),
    ))
}

/// Streaming serializer for the compacted on-disk form.
///
/// The seed implementation encoded the whole file into one growing
/// `Vec<u8>`, backpatching `head_end` and every treelet offset once the
/// data behind them had been written. But nothing in the format actually
/// needs backpatching: the head's byte length is exactly determined by the
/// schema and node counts, and every treelet's offset follows from
/// [`TreeletLayout::compute`] plus page alignment. `BatWriter` precomputes
/// the complete section table up front and then emits the file in a single
/// forward pass over any [`io::Write`] — head first, then each treelet
/// block at its 4 KiB boundary — so a file of any size is written with only
/// the head ever materialized in memory.
///
/// The emitted bytes are identical to the seed encoder's output
/// (guarded by the golden-bytes tests in `tests/golden_format.rs`).
///
/// Copy accounting: bytes staged in memory before reaching the sink are
/// charged to `compact.bytes_copied` — the head here, plus the whole file
/// when the caller asks for an in-memory `Vec` via [`write_bat`].
pub struct BatWriter<'a> {
    bat: &'a Bat,
    dict: BitmapDictionary,
    /// `shallow_ids[attr][shallow_node]` — dictionary ID per inner node.
    shallow_ids: Vec<Vec<u16>>,
    /// `treelet_ids[treelet][node][attr]`.
    treelet_ids: Vec<Vec<Vec<u16>>>,
    head_end: usize,
    treelet_offsets: Vec<usize>,
    file_size: usize,
    codec: Codec,
    /// v2 only: per-treelet encoded sections `(tag, stored bytes)`, in
    /// [`TreeletLayout::sections`] order. Empty for v1, whose blocks are
    /// streamed verbatim.
    encoded: Vec<Vec<(u8, Vec<u8>)>>,
    /// Attribute-index blobs `(directory entry, blob bytes)`, placed after
    /// the last treelet. Empty unless the writer was given an
    /// [`IndexSpec`] that selects attributes.
    indexes: Vec<(IndexDirEntry, Vec<u8>)>,
}

impl<'a> BatWriter<'a> {
    /// Precompute the dictionary and the full section table for `bat`,
    /// with the codec and index spec taken from the environment as it
    /// stands now (`BAT_TREELET_CODEC`, `BAT_INDEX_ATTRS`).
    pub fn new(bat: &'a Bat) -> BatWriter<'a> {
        let index_attrs = bat_obs::knobs::INDEX_ATTRS.get().unwrap_or_default();
        BatWriter::with_options(bat, Codec::from_env(), &IndexSpec::parse(&index_attrs))
    }

    /// As [`BatWriter::new`] with an explicit codec and *no* attribute
    /// indexes (bypasses both env knobs — the golden byte hashes pin this
    /// path).
    pub fn with_codec(bat: &'a Bat, codec: Codec) -> BatWriter<'a> {
        BatWriter::with_options(bat, codec, &IndexSpec::None)
    }

    /// As [`BatWriter::new`] with an explicit codec and index spec.
    /// `Codec::V1` emits the golden-pinned v1 bytes; `Codec::V2Lossless`
    /// compresses every treelet block section-by-section (in parallel,
    /// through the rayon pool — each treelet encodes independently, so the
    /// bytes are identical for any pool size). Attributes selected by
    /// `spec` get a packed static B-tree blob appended after the treelets
    /// with its extent recorded in a head directory.
    pub fn with_options(bat: &'a Bat, codec: Codec, spec: &IndexSpec) -> BatWriter<'a> {
        let na = bat.particles.num_attrs();
        let mut dict = BitmapDictionary::new();

        // Intern every node bitmap: shallow inners first, then treelet
        // nodes. The order is part of the byte format — IDs are assigned
        // in interning order.
        let shallow_ids: Vec<Vec<u16>> = (0..na)
            .map(|a| {
                let bms = bat.shallow_bitmaps(a);
                bms.iter().map(|&b| dict.intern(b)).collect()
            })
            .collect();
        let treelet_ids: Vec<Vec<Vec<u16>>> = bat
            .treelets
            .iter()
            .map(|t| {
                t.bitmaps
                    .iter()
                    .map(|per_node| per_node.iter().map(|&b| dict.intern(b)).collect())
                    .collect()
            })
            .collect();

        // v2: encode every treelet's sections up front (the offsets below
        // depend on the compressed sizes): serialize the block image, then
        // code each section's range of it. Treelets are independent, so
        // this fans out over the rayon pool; `collect` is order-preserving.
        let descs = bat.particles.descs();
        let encoded: Vec<Vec<(u8, Vec<u8>)>> = if codec.is_v2() {
            let indices: Vec<usize> = (0..bat.treelets.len()).collect();
            indices
                .par_iter()
                .map(|&ti| {
                    let layout = treelet_layout(bat, ti);
                    let mut image = Vec::with_capacity(layout.size);
                    write_block(&mut image, bat, &treelet_ids[ti], ti, &layout)
                        .expect("writing to a Vec cannot fail");
                    layout
                        .sections(descs)
                        .map(|(kind, range)| codec::encode_section(kind, &image[range], codec))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };

        // Attribute-index blobs: one packed B-tree per selected attribute,
        // keyed on the f64-widened column (the same widening the reader's
        // exact filter applies). Columns longer than u32::MAX payloads are
        // silently skipped — the file is still valid, just unindexed.
        let n = bat.num_particles();
        let mut indexes: Vec<(IndexDirEntry, Vec<u8>)> = Vec::new();
        if !spec.is_none() && n > 0 && n <= u32::MAX as usize {
            for (a, d) in bat.particles.descs().iter().enumerate() {
                if !spec.selects(&d.name) {
                    continue;
                }
                let col: Vec<f64> = match bat.particles.attr(a) {
                    AttributeArray::F32(v) => v.iter().map(|&x| x as f64).collect(),
                    AttributeArray::F64(v) => v.clone(),
                };
                let blob = bat_index::build_index(&col, n as u64);
                let entry = IndexDirEntry {
                    attr: a as u32,
                    offset: 0, // patched after treelet placement
                    len: blob.len() as u64,
                    entries: n as u64,
                };
                indexes.push((entry, blob));
            }
        }

        // Head size: fixed header + attribute table + inner records + leaf
        // table + dictionary (+ the v2 section codec table) (+ the index
        // directory). Every term is exact, so nothing needs to be patched
        // after the fact.
        let mut head_end = HEADER_BYTES;
        for d in bat.particles.descs() {
            head_end += attr_entry_bytes(d);
        }
        head_end += bat.shallow.nodes.len() * ShallowInnerRec::byte_size(na);
        head_end += bat.treelets.len() * LeafRec::BYTES;
        head_end += dict.byte_size();
        head_end += encoded.iter().map(Vec::len).sum::<usize>() * SectionRec::BYTES;
        head_end += index_dir_bytes(indexes.len());

        // Treelet placement: each block starts at the next page boundary
        // after the previous section and spans its stored size exactly
        // (layout size for v1, summed section sizes for v2).
        let mut off = head_end;
        let mut treelet_offsets = Vec::with_capacity(bat.treelets.len());
        for ti in 0..bat.treelets.len() {
            off = bat_wire::page_align(off);
            treelet_offsets.push(off);
            off += match encoded.get(ti) {
                Some(secs) => secs.iter().map(|(_, b)| b.len()).sum(),
                None => treelet_layout(bat, ti).size,
            };
        }

        // Index blobs after the last treelet, each on a page boundary.
        for (entry, blob) in &mut indexes {
            off = bat_wire::page_align(off);
            entry.offset = off as u64;
            off += blob.len();
        }

        BatWriter {
            bat,
            dict,
            shallow_ids,
            treelet_ids,
            head_end,
            treelet_offsets,
            file_size: off,
            codec,
            encoded,
            indexes,
        }
    }

    /// Byte length of the head (header through dictionary).
    pub fn head_end(&self) -> u64 {
        self.head_end as u64
    }

    /// Exact byte length of the finished file.
    pub fn file_size(&self) -> usize {
        self.file_size
    }

    /// Absolute byte offset of each treelet block.
    pub fn treelet_offsets(&self) -> &[usize] {
        &self.treelet_offsets
    }

    /// Emit the complete file to `w` in one forward pass. Wrap file sinks
    /// in a `BufWriter`; treelet data is streamed field by field.
    ///
    /// Carries the `layout.write` failpoint: `error` fails the emit up
    /// front, `torn:N` truncates the stream after N bytes — both exercise
    /// the commit protocol's handling of a write that dies inside the
    /// format serializer itself.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match bat_faults::fire("layout.write") {
            None => self.write_to_inner(w),
            Some(bat_faults::Fault::Torn(n)) => {
                let mut tw = bat_faults::TornWriter::new(w, n, "layout.write");
                self.write_to_inner(&mut tw)
            }
            Some(_) => Err(bat_faults::injected_error("layout.write", "format write")),
        }
    }

    fn write_to_inner<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let bat = self.bat;
        let na = bat.particles.num_attrs();

        // --- Head (for v1, the only section staged in memory) ---
        let mut enc = Encoder::with_capacity(self.head_end);
        enc.put_u32(MAGIC);
        enc.put_u32(if self.codec.is_v2() {
            VERSION_V2
        } else {
            VERSION
        });
        enc.put_u64(self.head_end as u64);
        enc.put_u64(bat.num_particles() as u64);
        put_aabb(&mut enc, &bat.domain);
        enc.put_u32(bat.config.subprefix_bits);
        enc.put_u32(bat.config.treelet.lod_per_inner);
        enc.put_u32(bat.config.treelet.max_leaf);
        enc.put_u32(na as u32);
        enc.put_u32(bat.shallow.nodes.len() as u32);
        enc.put_u32(bat.treelets.len() as u32);
        enc.put_u32(bat.max_treelet_depth);

        for (d, &(lo, hi)) in bat.particles.descs().iter().zip(&bat.attr_ranges) {
            d.encode(&mut enc);
            enc.put_f64(lo);
            enc.put_f64(hi);
        }

        for (ni, n) in bat.shallow.nodes.iter().enumerate() {
            let rec = ShallowInnerRec {
                left: n.left,
                right: n.right,
                bounds: n.bounds,
                bitmap_ids: self.shallow_ids.iter().map(|ids| ids[ni]).collect(),
            };
            rec.encode(&mut enc);
        }

        for (t, &offset) in bat.treelets.iter().zip(&self.treelet_offsets) {
            let rec = LeafRec {
                offset: offset as u64,
                first_particle: t.first_particle,
                num_particles: t.num_particles,
                num_nodes: t.nodes.len() as u32,
                max_depth: t.max_depth,
            };
            rec.encode(&mut enc);
        }

        self.dict.encode(&mut enc);
        if self.codec.is_v2() {
            // Section codec table: `(tag u8, stored_len u32)` per section,
            // per treelet, in block order.
            for secs in &self.encoded {
                for (tag, bytes) in secs {
                    enc.put_u8(*tag);
                    enc.put_u32(bytes.len() as u32);
                }
            }
        }
        if !self.indexes.is_empty() {
            // Attribute-index directory: magic + count + one extent record
            // per blob. Omitted entirely for index-free files.
            enc.put_u32(INDEX_DIR_MAGIC);
            enc.put_u32(self.indexes.len() as u32);
            for (e, _) in &self.indexes {
                enc.put_u32(e.attr);
                enc.put_u64(e.offset);
                enc.put_u64(e.len);
                enc.put_u64(e.entries);
            }
        }
        debug_assert_eq!(enc.len(), self.head_end, "head layout mismatch");
        bat_obs::counter_add("compact.bytes_copied", enc.len() as u64);
        w.write_all(&enc.finish())?;

        // --- Treelets at their page boundaries: v2 blocks from the staged
        // section buffers, v1 blocks streamed from the build arrays ---
        let mut pos = self.head_end;
        for (ti, &target) in self.treelet_offsets.iter().enumerate() {
            debug_assert!(target >= pos && target.is_multiple_of(TREELET_ALIGN));
            w.write_all(&ZEROS[..target - pos])?;
            pos = target;
            match self.encoded.get(ti) {
                Some(secs) => {
                    for (_, bytes) in secs {
                        w.write_all(bytes)?;
                        pos += bytes.len();
                    }
                }
                None => {
                    let layout = treelet_layout(bat, ti);
                    write_block(w, bat, &self.treelet_ids[ti], ti, &layout)?;
                    pos += layout.size;
                }
            }
        }
        // Unlike the v1 stream, the v2 sections were staged in memory by
        // `with_options` (the offsets depend on compressed sizes), so charge
        // them as copies.
        let staged: usize = self.encoded.iter().flatten().map(|(_, b)| b.len()).sum();
        bat_obs::counter_add("compact.bytes_copied", staged as u64);
        self.write_index_blobs(w, pos)
    }

    /// Emit the attribute-index blobs (padding each to its page boundary)
    /// and check the final position against the precomputed file size.
    fn write_index_blobs<W: Write>(&self, w: &mut W, mut pos: usize) -> io::Result<()> {
        let mut staged = 0usize;
        for (entry, blob) in &self.indexes {
            let target = entry.offset as usize;
            debug_assert!(target >= pos && target.is_multiple_of(TREELET_ALIGN));
            w.write_all(&ZEROS[..target - pos])?;
            w.write_all(blob)?;
            pos = target + blob.len();
            staged += blob.len();
        }
        if staged > 0 {
            // Like the v2 section buffers, blobs were staged in memory by
            // `with_options`; charge them as copies.
            bat_obs::counter_add("compact.bytes_copied", staged as u64);
        }
        debug_assert_eq!(pos, self.file_size, "file size mismatch");
        Ok(())
    }
}

/// Zero padding up to the next page boundary.
const ZEROS: [u8; TREELET_ALIGN] = [0; TREELET_ALIGN];

/// The layout of treelet `ti`'s block.
fn treelet_layout(bat: &Bat, ti: usize) -> TreeletLayout {
    let t = &bat.treelets[ti];
    TreeletLayout::compute(
        t.nodes.len(),
        t.num_particles as usize,
        bat.particles.descs(),
    )
}

/// Write treelet `ti`'s block image — its sections in `layout` order — to
/// `w`. The one serializer of section bytes: the v1 stream passes the file
/// sink, the v2 encoder a buffer whose section ranges it then codes.
/// Columns are streamed straight from the build arrays.
fn write_block<W: Write>(
    w: &mut W,
    bat: &Bat,
    node_ids: &[Vec<u16>],
    ti: usize,
    layout: &TreeletLayout,
) -> io::Result<()> {
    let t = &bat.treelets[ti];
    let na = bat.particles.num_attrs();
    let first = t.first_particle as usize;
    let particles = first..first + t.num_particles as usize;
    let mut columns = (0..na).map(|a| bat.particles.attr(a));
    for (kind, _) in layout.sections(bat.particles.descs()) {
        match kind {
            SectionKind::Nodes => {
                for (node, ids) in t.nodes.iter().zip(node_ids) {
                    for b in [node.bounds.min, node.bounds.max] {
                        w.write_all(&b.x.to_le_bytes())?;
                        w.write_all(&b.y.to_le_bytes())?;
                        w.write_all(&b.z.to_le_bytes())?;
                    }
                    w.write_all(&node.start.to_le_bytes())?;
                    w.write_all(&node.count.to_le_bytes())?;
                    w.write_all(&node.left.to_le_bytes())?;
                    w.write_all(&node.right.to_le_bytes())?;
                    w.write_all(&node.depth.to_le_bytes())?;
                    for &id in ids.iter().take(na) {
                        w.write_all(&id.to_le_bytes())?;
                    }
                }
            }
            SectionKind::Positions => {
                for p in &bat.particles.positions[particles.clone()] {
                    w.write_all(&p.x.to_le_bytes())?;
                    w.write_all(&p.y.to_le_bytes())?;
                    w.write_all(&p.z.to_le_bytes())?;
                }
            }
            SectionKind::Attr(_) => match columns.next().expect("one column per attribute") {
                AttributeArray::F32(v) => {
                    for x in &v[particles.clone()] {
                        w.write_all(&x.to_le_bytes())?;
                    }
                }
                AttributeArray::F64(v) => {
                    for x in &v[particles.clone()] {
                        w.write_all(&x.to_le_bytes())?;
                    }
                }
            },
        }
    }
    Ok(())
}

/// Decode a stored v2 treelet block back into a verbatim v1-layout image
/// (`layout.size` bytes). Every section length and tag has been validated
/// by the head parser; this revalidates against the bytes in hand so a
/// torn or swapped block is still a typed error. Each section decodes
/// straight into its range of the image, so the image and one scratch
/// buffer shared by its sections are the only allocations. `num_points`
/// is implied by `layout` and unused.
pub fn decode_block(
    stored: &[u8],
    rec: &TreeletCodecRec,
    layout: &TreeletLayout,
    descs: &[AttributeDesc],
    _num_points: usize,
) -> WireResult<Vec<u8>> {
    let width = layout.sections(descs).count();
    if rec.sections.len() != width {
        return Err(WireError::BadLength {
            what: "section codec table width",
            len: rec.sections.len() as u64,
            remaining: width,
        });
    }
    if layout.size > codec::MAX_DECODED_BLOCK {
        return Err(WireError::BadLength {
            what: "decoded treelet block",
            len: layout.size as u64,
            remaining: codec::MAX_DECODED_BLOCK,
        });
    }
    let mut out = vec![0u8; layout.size];
    let mut scratch = Vec::new();
    let mut cursor = 0usize;
    for ((kind, range), sec) in layout.sections(descs).zip(&rec.sections) {
        let end = cursor + sec.stored_len as usize;
        if end > stored.len() {
            return Err(WireError::Truncated {
                what: "stored treelet section",
                needed: end,
                remaining: stored.len(),
            });
        }
        let section = &stored[cursor..end];
        codec::decode_section(kind, sec.tag, section, &mut out[range], &mut scratch)?;
        cursor = end;
    }
    if cursor != stored.len() {
        return Err(WireError::BadLength {
            what: "stored treelet block",
            len: stored.len() as u64,
            remaining: cursor,
        });
    }
    bat_obs::counter_add("codec.blocks_decoded", 1);
    bat_obs::counter_add("codec.bytes_decoded", layout.size as u64);
    Ok(out)
}

/// Fixed header length (magic through `max_treelet_depth`).
pub const HEADER_BYTES: usize = 76;

/// Byte length of one attribute-table entry.
fn attr_entry_bytes(d: &AttributeDesc) -> usize {
    // length-prefixed name + dtype tag + (lo, hi) range
    8 + d.name.len() + 1 + 16
}

/// Serialize a [`Bat`] into the compacted on-disk form as one in-memory
/// buffer. Thin wrapper over [`BatWriter`]; prefer [`BatWriter::write_to`]
/// when the destination is a file, which stages only the head in memory.
pub fn write_bat(bat: &Bat) -> Vec<u8> {
    write_bat_inner(BatWriter::new(bat))
}

/// As [`write_bat`] with an explicit codec (bypasses `BAT_TREELET_CODEC`).
pub fn write_bat_with(bat: &Bat, codec: Codec) -> Vec<u8> {
    write_bat_inner(BatWriter::with_codec(bat, codec))
}

/// As [`write_bat`] with an explicit codec *and* index spec (bypasses both
/// `BAT_TREELET_CODEC` and `BAT_INDEX_ATTRS`).
pub fn write_bat_indexed(bat: &Bat, codec: Codec, spec: &IndexSpec) -> Vec<u8> {
    write_bat_inner(BatWriter::with_options(bat, codec, spec))
}

fn write_bat_inner(writer: BatWriter<'_>) -> Vec<u8> {
    let mut out = Vec::with_capacity(writer.file_size());
    writer
        .write_to(&mut out)
        .expect("writing to a Vec cannot fail");
    // Materializing the full file in memory is exactly the copy the
    // streaming path avoids; charge the body on top of the head that
    // `write_to` already counted.
    bat_obs::counter_add(
        "compact.bytes_copied",
        out.len().saturating_sub(writer.head_end) as u64,
    );
    out
}

/// Parse the head of a compacted BAT file from a buffer holding the whole
/// file.
pub fn read_head(data: &[u8]) -> WireResult<FileHead> {
    read_head_bounded(data, data.len())
}

/// Parse the file head from a buffer that holds *at least the head* of a
/// file whose total length is `file_len` — the range-request open path
/// fetches only the head bytes, so offset sanity checks (treelet offsets,
/// allocation guards) must be made against the real file length rather
/// than the buffer in hand.
pub fn read_head_bounded(data: &[u8], file_len: usize) -> WireResult<FileHead> {
    let mut dec = Decoder::new(data);
    dec.expect_magic(MAGIC)?;
    let version = dec.get_u32("version")?;
    if version != VERSION && version != VERSION_V2 {
        return Err(WireError::BadTag {
            what: "format version",
            tag: version as u64,
        });
    }
    let head_end = dec.get_u64("head end")?;
    if head_end as usize > file_len {
        return Err(WireError::BadLength {
            what: "head end",
            len: head_end,
            remaining: file_len,
        });
    }
    let num_particles = dec.get_u64("num particles")?;
    let domain = get_aabb(&mut dec)?;
    let subprefix_bits = dec.get_u32("subprefix bits")?;
    let lod_per_inner = dec.get_u32("lod per inner")?;
    let max_leaf = dec.get_u32("max leaf")?;
    let na = dec.get_u32("num attrs")? as usize;
    let num_inners = dec.get_u32("num shallow inners")? as usize;
    let num_leaves = dec.get_u32("num treelets")? as usize;
    let max_treelet_depth = dec.get_u32("max treelet depth")?;

    // Guard allocation sizes against corrupt counts.
    let sane = |n: usize, what: &'static str| -> WireResult<usize> {
        if n > file_len {
            Err(WireError::BadLength {
                what,
                len: n as u64,
                remaining: file_len,
            })
        } else {
            Ok(n)
        }
    };
    let na = sane(na, "num attrs")?;
    let num_inners = sane(num_inners, "num shallow inners")?;
    let num_leaves = sane(num_leaves, "num treelets")?;

    let mut descs = Vec::with_capacity(na);
    let mut attr_ranges = Vec::with_capacity(na);
    for _ in 0..na {
        descs.push(AttributeDesc::decode(&mut dec)?);
        let lo = dec.get_f64("attr lo")?;
        let hi = dec.get_f64("attr hi")?;
        attr_ranges.push((lo, hi));
    }

    let mut inners = Vec::with_capacity(num_inners);
    for _ in 0..num_inners {
        inners.push(ShallowInnerRec::decode(&mut dec, na)?);
    }

    let mut leaves = Vec::with_capacity(num_leaves);
    for _ in 0..num_leaves {
        leaves.push(LeafRec::decode(&mut dec, file_len)?);
    }

    let dict = BitmapDictionary::decode(&mut dec)?;

    // v2: the section codec table, validated hard before anything is
    // decoded from it — per-leaf counts must be consistent with the file
    // totals, the implied decoded block must fit the allocation cap, every
    // section must pass `codec::check_section` (a registered tag legal for
    // its kind; `raw` exactly its decoded size, `shuffle` never larger),
    // and the stored block must fit the file. A corrupt table is rejected
    // here, before any block allocation.
    let codecs = if version == VERSION_V2 {
        let mut recs = Vec::with_capacity(num_leaves);
        for leaf in &leaves {
            if leaf.num_particles as u64 > num_particles {
                return Err(WireError::BadLength {
                    what: "treelet particle count",
                    len: leaf.num_particles as u64,
                    remaining: num_particles as usize,
                });
            }
            let layout = TreeletLayout::compute(
                leaf.num_nodes as usize,
                leaf.num_particles as usize,
                &descs,
            );
            if layout.size > codec::MAX_DECODED_BLOCK {
                return Err(WireError::BadLength {
                    what: "decoded treelet block",
                    len: layout.size as u64,
                    remaining: codec::MAX_DECODED_BLOCK,
                });
            }
            let sections = layout
                .sections(&descs)
                .map(|(kind, range)| {
                    let tag = dec.get_u8("section codec tag")?;
                    let stored_len = dec.get_u32("section stored length")?;
                    codec::check_section(kind, tag, stored_len as usize, range.len())?;
                    Ok(SectionRec { tag, stored_len })
                })
                .collect::<WireResult<Vec<_>>>()?;
            let rec = TreeletCodecRec { sections };
            let end = leaf.offset + rec.stored_size() as u64;
            if end > file_len as u64 {
                return Err(WireError::BadLength {
                    what: "stored treelet block",
                    len: end,
                    remaining: file_len,
                });
            }
            recs.push(rec);
        }
        Some(recs)
    } else {
        None
    };

    // Attribute-index directory: present when head bytes remain after the
    // dictionary / codec table. The directory is advisory — any validation
    // failure rejects it wholesale and the file is served with indexes
    // ignored; a corrupt index must never take down the read path.
    let indexes = match parse_index_dir(&mut dec, head_end, file_len, na, num_particles) {
        Some(entries) => entries,
        None => {
            if (dec.position() as u64) < head_end {
                bat_obs::counter_add("index.dir_rejected", 1);
            }
            Vec::new()
        }
    };

    Ok(FileHead {
        head_end,
        num_particles,
        domain,
        subprefix_bits,
        lod_per_inner,
        max_leaf,
        max_treelet_depth,
        descs,
        attr_ranges,
        inners,
        leaves,
        dict,
        version,
        indexes,
        codecs,
    })
}

/// Parse and validate the attribute-index directory, `None` on any
/// inconsistency (the caller then serves the file index-free). Also `None`
/// when the head simply has no directory — the caller distinguishes the
/// two by whether head bytes remain.
fn parse_index_dir(
    dec: &mut Decoder,
    head_end: u64,
    file_len: usize,
    na: usize,
    num_particles: u64,
) -> Option<Vec<IndexDirEntry>> {
    let start = dec.position() as u64;
    if start >= head_end {
        return None;
    }
    if dec.get_u32("index dir magic").ok()? != INDEX_DIR_MAGIC {
        return None;
    }
    let count = dec.get_u32("index dir count").ok()? as usize;
    if count == 0 || count > na {
        return None;
    }
    // The directory must fill the head exactly — a flipped count lands
    // short or long and is rejected here.
    if start + index_dir_bytes(count) as u64 != head_end {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let attr = dec.get_u32("index attr").ok()?;
        let offset = dec.get_u64("index offset").ok()?;
        let len = dec.get_u64("index len").ok()?;
        let n = dec.get_u64("index entries").ok()?;
        let valid = (attr as usize) < na
            && entries.iter().all(|e: &IndexDirEntry| e.attr != attr)
            && n > 0
            && n <= num_particles
            && len >= bat_index::HEADER_BYTES as u64
            && offset >= head_end
            && offset
                .checked_add(len)
                .is_some_and(|end| end <= file_len as u64);
        if !valid {
            return None;
        }
        entries.push(IndexDirEntry {
            attr,
            offset,
            len,
            entries: n,
        });
    }
    Some(entries)
}

/// Byte size of one treelet node record for `na` attributes.
pub fn node_record_bytes(na: usize) -> usize {
    NODE_FIXED_BYTES + 2 * na
}

/// Byte size of a particle's position record.
pub const POSITION_BYTES: usize = 12;

/// The one description of a treelet block's sections (paper §III-C3): node
/// records, then positions, then one column per attribute, back to back
/// from the block start. The writer, the v2 encoder, the head parser, the
/// v2 decoder, the reader's view and the size accounting all walk
/// [`TreeletLayout::sections`]; nothing else works out a section's extent.
#[derive(Debug, Clone)]
pub struct TreeletLayout {
    /// Offset of the positions array (the node records fill `0..` it).
    pub positions_off: usize,
    /// Offset of each attribute array.
    pub attr_offs: Vec<usize>,
    /// Total block payload size.
    pub size: usize,
}

impl TreeletLayout {
    /// Section offsets for a block of `num_nodes` nodes and `num_points`
    /// particles under the given schema.
    pub fn compute(num_nodes: usize, num_points: usize, descs: &[AttributeDesc]) -> TreeletLayout {
        let positions_off = num_nodes * node_record_bytes(descs.len());
        let mut off = positions_off + num_points * POSITION_BYTES;
        let mut attr_offs = Vec::with_capacity(descs.len());
        for d in descs {
            attr_offs.push(off);
            off += num_points * d.dtype.size();
        }
        TreeletLayout {
            positions_off,
            attr_offs,
            size: off,
        }
    }

    /// The block's sections in block order, each with its kind and its byte
    /// range in the (decoded) block image. The ranges tile `0..size`.
    /// `descs` is the schema the layout was computed for.
    pub fn sections<'a>(
        &'a self,
        descs: &'a [AttributeDesc],
    ) -> impl Iterator<Item = (SectionKind, Range<usize>)> + 'a {
        debug_assert_eq!(descs.len(), self.attr_offs.len());
        let kinds = [SectionKind::Nodes, SectionKind::Positions]
            .into_iter()
            .chain(descs.iter().map(|d| SectionKind::Attr(d.dtype)));
        let starts = [0, self.positions_off]
            .into_iter()
            .chain(self.attr_offs.iter().copied());
        let ends = starts.clone().skip(1).chain([self.size]);
        kinds.zip(starts.zip(ends).map(|(start, end)| start..end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BatBuilder, BatConfig};
    use crate::particles::ParticleSet;
    use bat_geom::rng::Xoshiro256;

    fn sample_bat(n: usize) -> Bat {
        let mut rng = Xoshiro256::new(71);
        let mut set =
            ParticleSet::new(vec![AttributeDesc::f64("mass"), AttributeDesc::f32("temp")]);
        for _ in 0..n {
            let p = Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32());
            set.push(p, &[p.x as f64, p.y as f64 * 50.0]);
        }
        BatBuilder::new(BatConfig::default()).build(set, Aabb::unit())
    }

    /// Clustered cloud: most particles concentrate in a few blobs, so
    /// treelets are dense (thousands of particles) like real simulation
    /// output — the regime where the v2 codecs earn their keep. Uniform
    /// data spreads ~5 particles over each of the 4096 shallow cells,
    /// leaving nothing for a per-block codec to do.
    fn clustered_bat(n: usize) -> Bat {
        let mut rng = Xoshiro256::new(77);
        let mut set =
            ParticleSet::new(vec![AttributeDesc::f64("mass"), AttributeDesc::f32("temp")]);
        let centers: Vec<Vec3> = (0..6)
            .map(|_| Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            .collect();
        for i in 0..n {
            let c = centers[i % centers.len()];
            let j = |r: &mut Xoshiro256| (r.next_f32() - 0.5) * 0.04;
            let p = Vec3::new(
                (c.x + j(&mut rng)).clamp(0.0, 1.0),
                (c.y + j(&mut rng)).clamp(0.0, 1.0),
                (c.z + j(&mut rng)).clamp(0.0, 1.0),
            );
            set.push(p, &[p.x as f64, p.y as f64 * 50.0]);
        }
        BatBuilder::new(BatConfig::default()).build(set, Aabb::unit())
    }

    #[test]
    fn head_roundtrip() {
        let bat = sample_bat(5000);
        let bytes = write_bat(&bat);
        let head = read_head(&bytes).unwrap();
        assert_eq!(head.num_particles, 5000);
        assert_eq!(head.descs, bat.particles.descs());
        assert_eq!(head.attr_ranges.len(), 2);
        assert_eq!(head.leaves.len(), bat.treelets.len());
        assert_eq!(head.inners.len(), bat.shallow.nodes.len());
        assert_eq!(head.max_treelet_depth, bat.max_treelet_depth);
    }

    #[test]
    fn treelets_are_page_aligned() {
        let bat = sample_bat(20_000);
        let bytes = write_bat(&bat);
        let head = read_head(&bytes).unwrap();
        for leaf in &head.leaves {
            assert_eq!(leaf.offset as usize % TREELET_ALIGN, 0);
            assert!((leaf.offset as usize) < bytes.len());
        }
    }

    #[test]
    fn empty_bat_roundtrip() {
        let bat = sample_bat(0);
        let bytes = write_bat(&bat);
        let head = read_head(&bytes).unwrap();
        assert_eq!(head.num_particles, 0);
        assert!(head.leaves.is_empty());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let bat = sample_bat(100);
        let mut bytes = write_bat(&bat);
        bytes[0] ^= 0xff;
        assert!(matches!(read_head(&bytes), Err(WireError::BadMagic { .. })));
    }

    #[test]
    fn truncated_file_rejected() {
        let bat = sample_bat(100);
        let bytes = write_bat(&bat);
        for cut in [3, 20, 60] {
            assert!(read_head(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn treelet_layout_sizes() {
        let descs = vec![AttributeDesc::f64("a"), AttributeDesc::f32("b")];
        let l = TreeletLayout::compute(3, 10, &descs);
        assert_eq!(l.positions_off, 3 * (44 + 4));
        assert_eq!(l.attr_offs[0], l.positions_off + 120);
        assert_eq!(l.attr_offs[1], l.attr_offs[0] + 80);
        assert_eq!(l.size, l.attr_offs[1] + 40);
    }

    #[test]
    fn block_sizes_match_layout() {
        // `write_bat` honors BAT_TREELET_CODEC, so use the stored size
        // (identical to the layout size for v1) — this test then holds
        // under the CI codec-matrix env as well.
        let bat = sample_bat(3000);
        let bytes = write_bat(&bat);
        let head = read_head(&bytes).unwrap();
        for i in 0..head.leaves.len() {
            let leaf = &head.leaves[i];
            let end = leaf.offset as usize + head.stored_block_size(i).unwrap();
            assert!(end <= bytes.len(), "treelet {i} exceeds file");
            if i + 1 < head.leaves.len() {
                assert!(end <= head.leaves[i + 1].offset as usize);
            }
        }
    }

    #[test]
    fn v2_head_parses_with_codec_table() {
        let bat = sample_bat(5000);
        let bytes = write_bat_with(&bat, Codec::V2Lossless);
        let head = read_head(&bytes).unwrap();
        assert!(head.is_v2());
        let codecs = head.codecs.as_ref().unwrap();
        assert_eq!(codecs.len(), head.leaves.len());
        for rec in codecs {
            assert_eq!(rec.sections.len(), 2 + head.descs.len());
            // Node records stay raw.
            assert_eq!(rec.sections[0].tag, codec::TAG_RAW);
        }
        // Blocks stay page-aligned and within the file.
        for (i, leaf) in head.leaves.iter().enumerate() {
            assert_eq!(leaf.offset as usize % TREELET_ALIGN, 0);
            assert!(leaf.offset as usize + head.stored_block_size(i).unwrap() <= bytes.len());
        }
    }

    #[test]
    fn v2_lossless_is_smaller_and_decodes_exactly() {
        let bat = clustered_bat(20_000);
        let v1 = write_bat_with(&bat, Codec::V1);
        let v2 = write_bat_with(&bat, Codec::V2Lossless);
        assert!(v2.len() < v1.len(), "v2 {} !< v1 {}", v2.len(), v1.len());

        let h1 = read_head(&v1).unwrap();
        let h2 = read_head(&v2).unwrap();
        assert_eq!(h1.leaves.len(), h2.leaves.len());
        for (i, (l1, l2)) in h1.leaves.iter().zip(&h2.leaves).enumerate() {
            let layout =
                TreeletLayout::compute(l1.num_nodes as usize, l1.num_particles as usize, &h1.descs);
            let raw = &v1[l1.offset as usize..l1.offset as usize + layout.size];
            let stored =
                &v2[l2.offset as usize..l2.offset as usize + h2.stored_block_size(i).unwrap()];
            let decoded = decode_block(
                stored,
                h2.codec_rec(i).unwrap(),
                &layout,
                &h2.descs,
                l1.num_particles as usize,
            )
            .unwrap();
            assert_eq!(decoded, raw, "treelet {i} decode mismatch");
        }
    }

    #[test]
    fn v2_writer_precomputes_exact_sizes() {
        let bat = sample_bat(8000);
        let writer = BatWriter::with_codec(&bat, Codec::V2Lossless);
        let mut out = Vec::new();
        writer.write_to(&mut out).unwrap();
        assert_eq!(out.len(), writer.file_size());
        let head = read_head(&out).unwrap();
        assert_eq!(head.head_end, writer.head_end());
        for (leaf, &off) in head.leaves.iter().zip(writer.treelet_offsets()) {
            assert_eq!(leaf.offset as usize, off);
        }
    }

    #[test]
    fn v2_empty_file_roundtrips() {
        let bat = sample_bat(0);
        let bytes = write_bat_with(&bat, Codec::V2Lossless);
        let head = read_head(&bytes).unwrap();
        assert!(head.is_v2());
        assert_eq!(head.num_particles, 0);
        assert!(head.leaves.is_empty());
    }

    #[test]
    fn v2_corrupt_stored_len_rejected() {
        // Blowing up a stored_len in the codec table must be caught at head
        // parse (stored > raw, or block past EOF), never at decode time.
        let bat = sample_bat(2000);
        let mut bytes = write_bat_with(&bat, Codec::V2Lossless);
        let head = read_head(&bytes).unwrap();
        let na = head.descs.len();
        let table_bytes = head.leaves.len() * (2 + na) * SectionRec::BYTES;
        let table_off = head.head_end as usize - table_bytes;
        // Patch the first leaf's positions-section stored_len (entry 1).
        let len_off = table_off + SectionRec::BYTES + 1;
        let mut blown = bytes.clone();
        blown[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_head(&blown).is_err());

        // Node records are always raw: a `shuffle` tag on the first leaf's
        // node section (entry 0) is a corrupt table.
        let mut shuffled_nodes = bytes.clone();
        shuffled_nodes[table_off] = codec::TAG_SHUFFLE;
        assert!(matches!(
            read_head(&shuffled_nodes),
            Err(WireError::BadTag { .. })
        ));

        // A `raw` section stores exactly its decoded length: one byte short
        // of the node section's length is a corrupt table too.
        let nodes_len = &mut bytes[table_off + 1..table_off + 5];
        let short = u32::from_le_bytes(nodes_len.try_into().unwrap()) - 1;
        nodes_len.copy_from_slice(&short.to_le_bytes());
        assert!(matches!(
            read_head(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }
}
