//! Single-layer probes and host ceilings.
//!
//! A probe calls one layer's public entry point on the workload's own bytes
//! (the largest leaf file of the data set the run just wrote) and reports a
//! rate. Host ceilings are measured in the same run so that every rate has
//! a denominator: "slow" means slow relative to what this host can copy,
//! read or send.

use crate::datasets::Config;
use crate::run::open_local;
use bat_geom::Vec3;
use bat_layout::codec::{encode_section, Codec, SectionKind};
use bat_layout::format::{decode_block, TreeletLayout};
use bat_layout::{BatBuilder, BatConfig, BatFile, PageCache, ParticleSet, Query};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repeat `f` until `min_secs` have passed (at least `min_reps` times) and
/// return the median seconds of one call.
fn time_median(min_secs: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < min_reps || t0.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 1000 {
            break;
        }
    }
    crate::stats::median(&samples)
}

/// Sum of the last-level caches the run can use, from sysfs; 32 MiB when
/// the host does not say.
pub fn last_level_cache_bytes() -> usize {
    let mut best = 0usize;
    for index in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = std::fs::read_to_string(format!("{base}/size")) else {
            continue;
        };
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            best = best.max(n * mult);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Host ceilings. The copy's arrays are four times the last-level cache (at
/// least 64 MiB, at most 1 GiB) so it measures memory, not cache; the read
/// probe's file is capped at 256 MiB because it is written to disk first.
/// Sizes are reported.
pub fn host_ceilings(
    scratch: &Path,
    out: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> std::io::Result<()> {
    let llc = last_level_cache_bytes();
    let size = (4 * llc).clamp(64 << 20, 1 << 30);
    let file_size = size.min(256 << 20);
    notes.push(format!(
        "host ceilings: last-level cache {} MiB, copy arrays {} MiB, read file {} MiB",
        llc >> 20,
        size >> 20,
        file_size >> 20
    ));

    // memcpy: bytes copied per second (each byte is read once and written once).
    let src = vec![0x5au8; size];
    let mut dst = vec![0u8; size];
    let secs = time_median(0.3, 3, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    out.insert("host.memcpy_gbps", size as f64 / secs / 1e9);

    // pread: sequential positioned reads of a file this run just wrote. The
    // OS cache serves them, which is also what serves the leaf files.
    let path = scratch.join("pread.probe");
    std::fs::write(&path, &src[..file_size])?;
    drop(dst);
    drop(src);
    let file = std::fs::File::open(&path)?;
    let mut buf = vec![0u8; 1 << 20];
    let secs = time_median(0.3, 2, || {
        use std::os::unix::fs::FileExt;
        let mut off = 0u64;
        while (off as usize) < file_size {
            let n = file.read_at(&mut buf, off).expect("probe file reads");
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        black_box(&buf);
    });
    out.insert("host.pread_gbps", file_size as f64 / secs / 1e9);
    drop(file);
    std::fs::remove_file(&path)?;

    loopback(out)
}

/// Loopback TCP round trip (1-byte ping-pong) and one-way throughput.
fn loopback(out: &mut BTreeMap<&'static str, f64>) -> std::io::Result<()> {
    const PINGS: usize = 2000;
    const STREAM_BYTES: usize = 256 << 20;
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut b = [0u8; 1];
        for _ in 0..PINGS {
            s.read_exact(&mut b)?;
            s.write_all(&b)?;
        }
        let mut buf = vec![0u8; 64 << 10];
        let mut left = STREAM_BYTES;
        while left > 0 {
            let n = s.read(&mut buf)?;
            if n == 0 {
                break;
            }
            left -= n.min(left);
        }
        s.write_all(&[1])?;
        Ok(())
    });
    let mut s = std::net::TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    let mut b = [7u8; 1];
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        s.write_all(&b)?;
        s.read_exact(&mut b)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.insert("host.loopback_rtt_us", crate::stats::median(&rtts));

    let chunk = vec![0x33u8; 64 << 10];
    let t = Instant::now();
    let mut sent = 0;
    while sent < STREAM_BYTES {
        s.write_all(&chunk)?;
        sent += chunk.len();
    }
    s.read_exact(&mut b)?;
    out.insert(
        "host.loopback_gbps",
        STREAM_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9,
    );
    drop(s);
    echo.join().expect("echo thread")?;
    Ok(())
}

/// The leaf file of `cfg` with the most bytes.
fn largest_leaf(dir: &Path, cfg: Config) -> Result<Arc<BatFile>, String> {
    let ds = open_local(dir, cfg)?;
    let mut best: Option<Arc<BatFile>> = None;
    for leaf in 0..ds.num_files() as u32 {
        let f = ds.file(leaf).map_err(|e| e.to_string())?;
        if best.as_ref().is_none_or(|b| f.byte_size() > b.byte_size()) {
            best = Some(f);
        }
    }
    best.ok_or_else(|| "data set has no leaf file".to_string())
}

/// Layer probes on the data the run just wrote.
pub fn layer_probes(
    dir: &Path,
    density_range: (f64, f64),
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    // --- write side: rebuild, serialize, checksum the largest A leaf ---
    let leaf_a = largest_leaf(dir, Config::A)?;
    let mut set = ParticleSet::new(bat_workloads::cosmology::descs());
    leaf_a
        .query(&Query::new(), |p| set.push(p.position, p.attrs))
        .map_err(|e| e.to_string())?;
    let raw_bytes = set.raw_bytes() as f64;
    let domain = leaf_a.domain();
    let builder = BatBuilder::new(BatConfig::auto());
    let secs = time_median(0.2, 2, || {
        black_box(builder.build(set.clone(), domain));
    });
    out.insert("layout.build.probe_mbps", raw_bytes / secs / 1e6);

    // Serialize into memory: a sink that drops the bytes would let the
    // writer's borrowed slices go nowhere and time nothing.
    let bat = builder.build(set.clone(), domain);
    let writer = bat.writer_with(Codec::V1);
    let mut image = Vec::with_capacity(writer.file_size());
    let secs = time_median(0.1, 3, || {
        image.clear();
        writer
            .write_to(&mut image)
            .expect("a Vec never fails to write");
    });
    out.insert(
        "layout.format.serialize_gbps",
        image.len() as f64 / secs / 1e9,
    );

    let secs = time_median(0.1, 3, || {
        black_box(bat_wire::crc::crc32c(black_box(&image)));
    });
    out.insert("wire.crc32c_gbps", image.len() as f64 / secs / 1e9);

    let mass: Vec<f64> = (0..set.len())
        .map(|i| set.value(crate::inputs::ATTR_MASS, i))
        .collect();
    let secs = time_median(0.1, 2, || {
        black_box(bat_index::build_index(&mass, mass.len() as u64));
    });
    out.insert("index.build_mkeys_s", mass.len() as f64 / secs / 1e6);

    // --- codec: every treelet of the largest B leaf ---
    let leaf_b = largest_leaf(dir, Config::B)?;
    let head = leaf_b.head();
    let block = leaf_b.block().ok_or("largest B leaf is not block-backed")?;
    let codecs = head
        .codecs
        .as_ref()
        .ok_or("config B leaf has no v2 codec table")?;
    let bytes = block.as_slice();
    let treelets: Vec<(
        &[u8],
        &bat_layout::format::TreeletCodecRec,
        TreeletLayout,
        usize,
    )> = head
        .leaves
        .iter()
        .zip(codecs)
        .map(|(leaf, rec)| {
            let layout = TreeletLayout::compute(
                leaf.num_nodes as usize,
                leaf.num_particles as usize,
                &head.descs,
            );
            let start = leaf.offset as usize;
            (
                &bytes[start..start + rec.stored_size()],
                rec,
                layout,
                leaf.num_particles as usize,
            )
        })
        .collect();
    let mut decoded: Vec<Vec<u8>> = Vec::new();
    let secs = time_median(0.3, 2, || {
        decoded.clear();
        for (stored, rec, layout, n) in &treelets {
            decoded.push(
                decode_block(stored, rec, layout, &head.descs, *n).expect("own file decodes"),
            );
        }
    });
    let decoded_bytes: usize = decoded.iter().map(Vec::len).sum();
    out.insert(
        "layout.codec.decode_gbps",
        decoded_bytes as f64 / secs / 1e9,
    );

    // Encode the same sections back (positions + every attribute column).
    let secs = time_median(0.3, 2, || {
        for (image, (_, _, layout, _)) in decoded.iter().zip(&treelets) {
            let mut ends: Vec<usize> = layout.attr_offs.clone();
            ends.push(layout.size);
            black_box(encode_section(
                SectionKind::Positions,
                &image[layout.positions_off..ends[0]],
                Codec::V2Lossless,
            ));
            for (a, desc) in head.descs.iter().enumerate() {
                black_box(encode_section(
                    SectionKind::Attr(desc.dtype),
                    &image[ends[a]..ends[a + 1]],
                    Codec::V2Lossless,
                ));
            }
        }
    });
    let section_bytes: usize = treelets
        .iter()
        .map(|(_, _, l, _)| l.size - l.positions_off)
        .sum();
    out.insert(
        "layout.codec.encode_gbps",
        section_bytes as f64 / secs / 1e9,
    );

    // --- index search on that leaf's local_density index ---
    let attr = crate::inputs::ATTR_DENSITY;
    if let Some(entry) = head.index_for(attr) {
        let blob = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
        let fetch = bat_index::SliceFetch(blob);
        let searcher = bat_index::IndexSearcher::open(&fetch, entry.len, entry.entries)
            .map_err(|e| e.to_string())?;
        let (lo, hi) =
            bat_index::range_keys(density_range.0, density_range.1).ok_or("empty filter range")?;
        let secs = time_median(0.05, 20, || {
            let l = searcher.lower_bound(lo).expect("own index searches");
            let h = searcher.upper_bound(hi).expect("own index searches");
            black_box(searcher.payloads(l, h).expect("own index searches"));
        });
        out.insert("index.search_us", secs * 1e6);
    }

    // --- page cache lookups ---
    let cache = PageCache::new(64 << 20);
    let blockv = Arc::new(vec![0u8; 4096]);
    for t in 0..1024u32 {
        cache.insert(1, t, blockv.clone(), bat_layout::cache::PRIORITY_NORMAL);
    }
    let secs = time_median(0.05, 20, || {
        for t in 0..1024u32 {
            black_box(cache.get(1, t));
        }
    });
    out.insert("layout.cache.get_ns", secs / 1024.0 * 1e9);

    // --- stream protocol: one full chunk ---
    let n = bat_stream::CHUNK_POINTS;
    let chunk = bat_stream::Chunk {
        positions: (0..n).map(|i| Vec3::splat(i as f32)).collect(),
        attrs: (0..n * crate::inputs::NUM_ATTRS)
            .map(|i| i as f64)
            .collect(),
        num_attrs: crate::inputs::NUM_ATTRS,
    };
    let mut wire = Vec::new();
    let secs = time_median(0.05, 20, || {
        let mut enc = bat_wire::Encoder::new();
        bat_stream::protocol::encode_chunk(&mut enc, black_box(&chunk));
        wire = enc.finish();
    });
    out.insert(
        "stream.protocol.encode_gbps",
        wire.len() as f64 / secs / 1e9,
    );
    let secs = time_median(0.05, 20, || {
        let mut dec = bat_wire::Decoder::new(black_box(&wire));
        black_box(bat_stream::protocol::decode_chunk(&mut dec).expect("own chunk decodes"));
    });
    out.insert(
        "stream.protocol.decode_gbps",
        wire.len() as f64 / secs / 1e9,
    );
    Ok(())
}

/// `Dataset::open` plus the first `file()` of every leaf, milliseconds.
pub fn open_ms(dir: &Path, cfg: Config) -> Result<f64, String> {
    let mut failed = None;
    let secs = time_median(0.05, 3, || {
        let opened = open_local(dir, cfg).and_then(|ds| {
            for leaf in 0..ds.num_files() as u32 {
                ds.file(leaf).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        if let Err(e) = opened {
            failed = Some(e);
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(secs * 1e3),
    }
}
