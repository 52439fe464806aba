//! libbat: adaptive spatially aware parallel I/O for multiresolution
//! particle data layouts.
//!
//! A from-scratch Rust reproduction of Usher et al., *"Adaptive Spatially
//! Aware I/O for Multiresolution Particle Data Layouts"* (IPDPS 2021). This
//! crate ties the workspace together into the library a simulation would
//! link against:
//!
//! - [`write::write_particles`] — the two-phase **write** pipeline
//!   (paper §III, Fig. 1): gather rank bounds/counts at rank 0, build the
//!   adaptive Aggregation Tree (or the AUG baseline), transfer particles to
//!   aggregators, build and write one Binned Attribute Tree file per leaf,
//!   and write the top-level metadata.
//! - [`read::read_particles`] — the two-phase **read** pipeline
//!   (paper §IV, Fig. 3): read aggregators serve spatial queries over the
//!   leaf files through a nonblocking client/server loop terminated by an
//!   `ibarrier`, supporting restarts on more or fewer ranks than wrote the
//!   data.
//! - [`dataset::Dataset`] — postprocess **visualization reads**
//!   (paper §V): open a written timestep as a single logical file and run
//!   progressive multiresolution, spatial, and attribute-filtered queries,
//!   each planned and executed through [`plan::QueryPlan`].
//! - [`modeled`] — the same write/read pipelines executed against the
//!   `bat-iosim` performance model at supercomputer scale (up to the
//!   paper's 43k ranks), using the *real* aggregation algorithms and
//!   costing only I/O and network operations (see DESIGN.md §2).
//!
//! The executed pipelines run on [`bat_comm::Cluster`], an in-process
//! virtual cluster whose interface mirrors the MPI subset the paper uses;
//! porting to a real MPI binding means re-implementing [`bat_comm::Comm`].
//!
//! # Quickstart
//!
//! ```
//! use bat_comm::Cluster;
//! use bat_geom::{Aabb, Vec3};
//! use bat_layout::{AttributeDesc, ParticleSet};
//! use libbat::write::{write_particles, WriteConfig};
//! use libbat::read::read_particles;
//!
//! let dir = std::env::temp_dir().join(format!("libbat-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//!
//! // 4 ranks, each owning a slab of the unit cube with 500 particles.
//! let dir2 = dir.clone();
//! Cluster::run(4, move |comm| {
//!     let r = comm.rank() as f32;
//!     let bounds = Aabb::new(Vec3::new(r * 0.25, 0.0, 0.0), Vec3::new(r * 0.25 + 0.25, 1.0, 1.0));
//!     let mut set = ParticleSet::new(vec![AttributeDesc::f64("mass")]);
//!     for i in 0..500 {
//!         // Strictly interior positions: spatial queries use inclusive
//!         // bounds, so particles exactly on a shared face would be
//!         // returned to both neighbors.
//!         let t = (i as f32 + 0.5) / 500.0;
//!         set.push(
//!             Vec3::new(bounds.min.x + t * 0.25, t, 0.5),
//!             &[i as f64],
//!         );
//!     }
//!     let cfg = WriteConfig::with_target_size(64 << 10, set.bytes_per_particle() as u64);
//!     let report = write_particles(&comm, set, bounds, &cfg, &dir2, "step0").unwrap();
//!     if comm.rank() == 0 {
//!         assert!(report.files >= 1);
//!     }
//!     // Restart: every rank reads its region back.
//!     let restored = read_particles(&comm, bounds, &dir2, "step0").unwrap();
//!     assert_eq!(restored.len(), 500);
//! });
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod dataset;
pub mod modeled;
pub mod plan;
pub mod read;
pub mod verify;
pub mod write;

pub use dataset::{Dataset, ReadBackend};
pub use modeled::{model_read, model_write, ModeledOutcome};
pub use plan::{PlanStats, QueryPlan, ServeError};
pub use verify::{verify_dataset, CommitState, LeafCheck, LeafStatus, VerifyReport};
pub use write::{Strategy, WriteConfig, WriteReport};

/// Re-exports of the workspace crates for downstream convenience.
pub use bat_aggregation as aggregation;
pub use bat_comm as comm;
pub use bat_geom as geom;
pub use bat_iosim as iosim;
pub use bat_layout as layout;
