//! The Binned Attribute Tree (BAT): a low-overhead multiresolution particle
//! data layout with bitmap-index attribute filtering (paper §III-C, §V).
//!
//! A BAT is built by each write aggregator over the particles it receives,
//! in two parallel steps:
//!
//! 1. **Shallow tree** ([`shallow`]): particles are sorted by 63-bit Morton
//!    code; the unique 12-bit subprefixes of the codes are merged and a
//!    Karras-style bottom-up radix tree ([`radix`]) is built over them. Each
//!    shallow leaf covers a contiguous run of the sorted particles.
//! 2. **Treelets** ([`treelet`]): inside every shallow leaf, a median-split
//!    k-d tree is built. Each *inner* node sets aside a fixed number of LOD
//!    particles chosen by stratified sampling — a coarse representation with
//!    zero duplication. Each node also carries a 32-bit binned bitmap index
//!    per attribute ([`bitmap`]), computed over the aggregator-local value
//!    range; inner bitmaps merge their children's.
//!
//! The tree is then **compacted** ([`mod@format`]) into a single buffer: shallow
//! tree + shared bitmap dictionary ([`dict`]) at the head, treelets at 4 KiB
//! page boundaries for memory-mapped access. [`reader::BatFile`] opens a
//! compacted buffer (owned bytes or mmap) and serves the paper's
//! visualization reads ([`query`]): spatial box filters, attribute filters
//! with false-positive rejection, and progressive multiresolution reads
//! driven by a quality parameter in `[0, 1]`.
//!
//! ```
//! use bat_layout::{AttributeDesc, AttributeType, BatBuilder, BatConfig, ParticleSet, Query};
//! use bat_geom::{Aabb, Vec3};
//!
//! // 1k particles on a diagonal with one attribute.
//! let n = 1000;
//! let mut set = ParticleSet::new(vec![AttributeDesc::new("mass", AttributeType::F64)]);
//! for i in 0..n {
//!     let t = i as f32 / n as f32;
//!     set.push(Vec3::new(t, t, t), &[i as f64]);
//! }
//! let bounds = Aabb::new(Vec3::ZERO, Vec3::ONE);
//! let bat = BatBuilder::new(BatConfig::default()).build(set, bounds);
//! let bytes = bat.to_bytes();
//!
//! // Read it back and run a spatial + attribute query at full quality.
//! let file = bat_layout::BatFile::from_bytes(bytes).unwrap();
//! let q = Query::new()
//!     .with_bounds(Aabb::new(Vec3::ZERO, Vec3::splat(0.5)))
//!     .with_filter(0, 0.0, 250.0);
//! let mut hits = 0;
//! file.query(&q, |p| {
//!     assert!(p.position.x <= 0.5 && p.attrs[0] <= 250.0);
//!     hits += 1;
//! })
//! .unwrap();
//! assert_eq!(hits, 251);
//! ```

pub mod attr;
pub mod bitmap;
pub mod build;
pub mod cache;
pub mod codec;
pub mod columns;
pub mod dict;
pub mod footer;
pub mod format;
pub mod morton_sort;
pub mod particles;
pub mod query;
pub mod radix;
pub mod reader;
pub mod shallow;
pub mod source;
pub mod stats;
pub mod treelet;

pub use attr::{AttributeArray, AttributeDesc, AttributeType};
pub use bat_index::{IndexError, IndexSpec};
pub use bitmap::Bitmap32;
pub use build::{Bat, BatBuilder, BatConfig};
pub use cache::{CacheStats, PageCache};
pub use codec::Codec;
pub use columns::ColumnarParticles;
pub use dict::BitmapDictionary;
pub use footer::{CrcSectionWriter, FileFooter, SectionCrc, SectionMismatch};
pub use format::{write_bat_indexed, IndexDirEntry};
pub use particles::ParticleSet;
pub use query::{quality_to_depth, PointRecord, Query, QueryError};
pub use reader::{BatFile, FilePlan, PlanStrategy};
pub use source::{
    coalesce_ranges, ByteSource, FileSource, MemorySource, RangeConfig, RangeReader, RangeStats,
};
pub use stats::LayoutStats;
