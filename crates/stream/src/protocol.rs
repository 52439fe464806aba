//! The streaming wire protocol: length-framed messages over a byte stream.
//!
//! Every message is a `u32` little-endian length followed by that many
//! payload bytes (encoded with `bat-wire`). The session flow:
//!
//! ```text
//! client → server   Request  { query }
//! server → client   Schema   { attribute names/types, domain, total }   (first request only)
//! server → client   Chunk    { ≤ CHUNK_POINTS points }                  (repeated)
//! server → client   Done     { points_sent }
//! ```
//!
//! Two alternative replies end a request without `Done`: `Busy`
//! (`retry_after_ms`) when the server's bounded queue refused the request,
//! and `Error` (`code`, `message`) when execution failed with a typed,
//! recoverable error (deadline expiry, invalid query). Both leave the
//! session open for further requests.
//!
//! Chunks are bounded so a viewer can render while the stream continues —
//! the paper's progressive loading behavior (Fig. 4, §V-B).
//!
//! A chunk is encoded once, by the thread that filled it
//! ([`Chunk::encode_frame`]), and those bytes are what the client's socket
//! carries: a shard worker sends them to its router as they are, and the
//! router relays them after checking only the header
//! ([`check_chunk_frame`]).

use bat_geom::Vec3;
use bat_layout::{AttributeDesc, Query};
use bat_wire::{Decoder, Encoder, WireError, WireResult};
use std::io::{Read, Write};

/// Maximum points per chunk.
pub const CHUNK_POINTS: usize = 4096;

/// Message type tags.
const MSG_REQUEST: u8 = 1;
const MSG_SCHEMA: u8 = 2;
pub(crate) const MSG_CHUNK: u8 = 3;
const MSG_DONE: u8 = 4;
const MSG_BUSY: u8 = 5;
const MSG_ERROR: u8 = 6;
const MSG_PARTIAL: u8 = 7;

/// [`ServerMsg::Error`] code: the per-query deadline expired.
pub const ERR_DEADLINE: u32 = 1;
/// [`ServerMsg::Error`] code: the query is invalid for the dataset schema.
pub const ERR_BAD_QUERY: u32 = 2;
/// [`ServerMsg::Error`] code: the server failed internally (I/O, corrupt
/// file); the session stays usable.
pub const ERR_INTERNAL: u32 = 3;
/// [`ServerMsg::Error`] code: a shard process behind the router died or
/// went silent mid-query; any streamed chunks are partial. The session
/// stays usable (later requests may hit the surviving shards).
pub const ERR_SHARD: u32 = 4;
/// Hard cap on any framed message (a sanity bound against corrupt frames).
const MAX_FRAME: u32 = 64 << 20;

/// A client request: run this query and stream the results.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The query to evaluate (quality, progressive baseline, bounds,
    /// attribute filters).
    pub query: Query,
}

/// Dataset schema sent on a session's first response.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Attribute descriptors.
    pub descs: Vec<AttributeDesc>,
    /// Total particles in the dataset.
    pub total_particles: u64,
}

/// A batch of streamed points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Chunk {
    /// Positions, one per point.
    pub positions: Vec<Vec3>,
    /// Attribute values, `num_attrs` per point, point-major.
    pub attrs: Vec<f64>,
    /// Attributes per point.
    pub num_attrs: usize,
}

impl Chunk {
    /// Number of points in the chunk.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the chunk holds no points.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Attribute `a` of point `i`.
    pub fn attr(&self, i: usize, a: usize) -> f64 {
        self.attrs[i * self.num_attrs + a]
    }

    /// The chunk as a client frame payload — what [`ServerMsg::Chunk`]
    /// encodes to — in one exactly sized allocation.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(chunk_frame_len(self.len(), self.num_attrs));
        enc.put_u8(MSG_CHUNK);
        encode_chunk(&mut enc, self);
        enc.finish()
    }
}

/// Bytes in a chunk frame payload of `n` points: tag, attribute and point
/// counts, the position column, and the length-prefixed attribute column.
fn chunk_frame_len(n: usize, num_attrs: usize) -> usize {
    25 + n * (12 + 8 * num_attrs)
}

/// Check that `frame` is a well-formed chunk frame payload for a schema of
/// `num_attrs` attributes, from its header and length alone, and return
/// its point count. This is everything [`decode_chunk`] verifies (for any
/// schema a session can announce), so a frame that passes decodes; a
/// router uses it to relay a shard's chunk without touching the points.
pub fn check_chunk_frame(frame: &[u8], num_attrs: usize) -> WireResult<usize> {
    let mut dec = Decoder::new(frame);
    let tag = dec.get_u8("message tag")?;
    if tag != MSG_CHUNK {
        return Err(WireError::BadTag {
            what: "chunk frame tag",
            tag: tag as u64,
        });
    }
    let attrs = dec.get_u64("chunk attrs")?;
    let n = dec.get_u64("chunk points")?;
    let bad = |what, len| WireError::BadLength {
        what,
        len,
        remaining: frame.len(),
    };
    if attrs != num_attrs as u64 {
        return Err(bad("chunk attrs vs schema", attrs));
    }
    if n > CHUNK_POINTS as u64 {
        return Err(bad("chunk size", n));
    }
    let n = n as usize;
    if frame.len() != chunk_frame_len(n, num_attrs) {
        return Err(bad("chunk frame length", frame.len() as u64));
    }
    dec.get_raw(n * 12, "chunk positions")?;
    let values = dec.get_u64("chunk attr count")?;
    if values != (n * num_attrs) as u64 {
        return Err(bad("chunk attr payload", values));
    }
    Ok(n)
}

/// Messages a server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Session schema (first reply of a connection).
    Schema(Schema),
    /// A batch of points.
    Chunk(Chunk),
    /// End of the current request; `points` were sent in total.
    Done {
        /// Total points streamed for the request.
        points: u64,
    },
    /// The server's bounded queue is full: the request was *not* executed;
    /// retry after the hinted delay. The session stays open.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The request failed with a typed, recoverable error (`ERR_*` codes).
    /// Any chunks already streamed for the request are partial and should
    /// be discarded; the session stays open.
    Error {
        /// One of the `ERR_*` codes.
        code: u32,
        /// Human-readable detail.
        message: String,
    },
    /// End of a *degraded* request: the client opted in with
    /// `Query::allow_partial` and part of the fabric was unreachable, so
    /// the streamed chunks cover only `served_leaves` of `total_leaves`
    /// planned leaves. Never sent unless the client opted in — partial
    /// data is never passed off as a `Done`.
    Partial {
        /// Points actually streamed.
        points: u64,
        /// Planned leaves whose points were served.
        served_leaves: u64,
        /// Leaves the plan wanted in total.
        total_leaves: u64,
    },
}

/// Encode a [`Chunk`]'s body: everything of a chunk frame after its tag.
/// Shared between the client protocol and the shard fabric's
/// inter-process frames, so a router relays shard chunks without
/// re-encoding points.
pub fn encode_chunk(enc: &mut Encoder, c: &Chunk) {
    enc.put_u64(c.num_attrs as u64);
    enc.put_u64(c.positions.len() as u64);
    for p in &c.positions {
        enc.put_f32(p.x);
        enc.put_f32(p.y);
        enc.put_f32(p.z);
    }
    enc.put_f64_slice(&c.attrs);
}

/// Decode a [`Chunk`]'s body (inverse of [`encode_chunk`]).
pub fn decode_chunk(dec: &mut Decoder) -> WireResult<Chunk> {
    let num_attrs = dec.get_usize("chunk attrs")?;
    let n = dec.get_usize("chunk points")?;
    if n > CHUNK_POINTS || num_attrs > 4096 {
        return Err(WireError::BadLength {
            what: "chunk size",
            len: n as u64,
            remaining: dec.remaining(),
        });
    }
    // Positions are a bare column; decode them in one bulk pass.
    let raw = dec.get_raw(n * 12, "chunk positions")?;
    let positions: Vec<Vec3> = raw
        .chunks_exact(12)
        .map(|c| {
            Vec3::new(
                f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                f32::from_le_bytes([c[8], c[9], c[10], c[11]]),
            )
        })
        .collect();
    let attrs = dec.get_f64_vec("chunk attrs data")?;
    if attrs.len() != n * num_attrs {
        return Err(WireError::BadLength {
            what: "chunk attr payload",
            len: attrs.len() as u64,
            remaining: dec.remaining(),
        });
    }
    Ok(Chunk {
        positions,
        attrs,
        num_attrs,
    })
}

/// Write one length-framed message.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one length-framed message; `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed the session).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(MSG_REQUEST);
        self.query.encode(&mut enc);
        enc.finish()
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> WireResult<Request> {
        let mut dec = Decoder::new(payload);
        let tag = dec.get_u8("message tag")?;
        if tag != MSG_REQUEST {
            return Err(WireError::BadTag {
                what: "request tag",
                tag: tag as u64,
            });
        }
        Ok(Request {
            query: Query::decode(&mut dec)?,
        })
    }
}

impl ServerMsg {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            ServerMsg::Schema(s) => {
                enc.put_u8(MSG_SCHEMA);
                enc.put_u64(s.descs.len() as u64);
                for d in &s.descs {
                    d.encode(&mut enc);
                }
                enc.put_u64(s.total_particles);
            }
            ServerMsg::Chunk(c) => return c.encode_frame(),
            ServerMsg::Done { points } => {
                enc.put_u8(MSG_DONE);
                enc.put_u64(*points);
            }
            ServerMsg::Busy { retry_after_ms } => {
                enc.put_u8(MSG_BUSY);
                enc.put_u64(*retry_after_ms);
            }
            ServerMsg::Error { code, message } => {
                enc.put_u8(MSG_ERROR);
                enc.put_u32(*code);
                enc.put_str(message);
            }
            ServerMsg::Partial {
                points,
                served_leaves,
                total_leaves,
            } => {
                enc.put_u8(MSG_PARTIAL);
                enc.put_u64(*points);
                enc.put_u64(*served_leaves);
                enc.put_u64(*total_leaves);
            }
        }
        enc.finish()
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> WireResult<ServerMsg> {
        let mut dec = Decoder::new(payload);
        match dec.get_u8("message tag")? {
            MSG_SCHEMA => {
                let na = dec.get_usize("schema attr count")?;
                if na > 4096 {
                    return Err(WireError::BadLength {
                        what: "schema attr count",
                        len: na as u64,
                        remaining: dec.remaining(),
                    });
                }
                let mut descs = Vec::with_capacity(na);
                for _ in 0..na {
                    descs.push(AttributeDesc::decode(&mut dec)?);
                }
                let total_particles = dec.get_u64("schema total")?;
                Ok(ServerMsg::Schema(Schema {
                    descs,
                    total_particles,
                }))
            }
            MSG_CHUNK => Ok(ServerMsg::Chunk(decode_chunk(&mut dec)?)),
            MSG_DONE => Ok(ServerMsg::Done {
                points: dec.get_u64("done points")?,
            }),
            MSG_BUSY => Ok(ServerMsg::Busy {
                retry_after_ms: dec.get_u64("busy retry-after")?,
            }),
            MSG_ERROR => Ok(ServerMsg::Error {
                code: dec.get_u32("error code")?,
                message: dec.get_str("error message")?,
            }),
            MSG_PARTIAL => Ok(ServerMsg::Partial {
                points: dec.get_u64("partial points")?,
                served_leaves: dec.get_u64("partial served leaves")?,
                total_leaves: dec.get_u64("partial total leaves")?,
            }),
            tag => Err(WireError::BadTag {
                what: "server message tag",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bat_geom::Aabb;

    #[test]
    fn request_roundtrip() {
        let r = Request {
            query: Query::new()
                .with_quality(0.4)
                .with_prev_quality(0.2)
                .with_bounds(Aabb::unit())
                .with_filter(1, -2.0, 5.0)
                .with_allow_partial(true),
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn server_msgs_roundtrip() {
        let msgs = [
            ServerMsg::Schema(Schema {
                descs: vec![AttributeDesc::f64("m"), AttributeDesc::f32("t")],
                total_particles: 99,
            }),
            ServerMsg::Chunk(Chunk {
                positions: vec![Vec3::new(1.0, 2.0, 3.0), Vec3::ZERO],
                attrs: vec![4.0, 5.0, 6.0, 7.0],
                num_attrs: 2,
            }),
            ServerMsg::Done { points: 123 },
            ServerMsg::Busy { retry_after_ms: 25 },
            ServerMsg::Error {
                code: ERR_DEADLINE,
                message: "query deadline expired after 3/9 treelets".into(),
            },
            ServerMsg::Partial {
                points: 70,
                served_leaves: 7,
                total_leaves: 9,
            },
        ];
        for m in msgs {
            assert_eq!(ServerMsg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn framing_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = std::io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn wrong_tags_rejected() {
        let done = ServerMsg::Done { points: 1 }.encode();
        assert!(Request::decode(&done).is_err());
        let req = Request {
            query: Query::new(),
        }
        .encode();
        assert!(ServerMsg::decode(&req).is_err());
    }

    #[test]
    fn chunk_accessors() {
        let c = Chunk {
            positions: vec![Vec3::ZERO, Vec3::ONE],
            attrs: vec![1.0, 2.0, 3.0, 4.0],
            num_attrs: 2,
        };
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.attr(0, 1), 2.0);
        assert_eq!(c.attr(1, 0), 3.0);
    }
}
