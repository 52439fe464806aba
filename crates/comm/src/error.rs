//! Liveness errors: the communicator's way of turning a dead or silent
//! peer into a clean `Err` instead of an eternal hang (DESIGN.md §11).

use std::fmt;
use std::io;

/// Why a bounded receive (or a deadline-aware collective built on one)
/// could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the deadline.
    Timeout {
        /// The waiting rank.
        rank: usize,
        /// The source it was waiting on (`None` = any source).
        src: Option<usize>,
        /// The tag it was waiting on.
        tag: u32,
        /// How long it waited, in milliseconds.
        waited_ms: u64,
    },
    /// The peer this rank was receiving from declared itself dead
    /// ([`crate::Comm::mark_dead`]) and no matching message remains queued.
    PeerDead {
        /// The waiting rank.
        rank: usize,
        /// The dead peer.
        peer: usize,
        /// The tag it was waiting on.
        tag: u32,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                rank,
                src,
                tag,
                waited_ms,
            } => match src {
                Some(s) => write!(
                    f,
                    "rank {rank}: receive from rank {s} (tag {tag}) timed out after {waited_ms} ms"
                ),
                None => write!(
                    f,
                    "rank {rank}: receive from any source (tag {tag}) timed out after {waited_ms} ms"
                ),
            },
            CommError::PeerDead { rank, peer, tag } => write!(
                f,
                "rank {rank}: peer rank {peer} died before sending (tag {tag})"
            ),
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for io::Error {
    fn from(e: CommError) -> io::Error {
        let kind = match &e {
            CommError::Timeout { .. } => io::ErrorKind::TimedOut,
            CommError::PeerDead { .. } => io::ErrorKind::BrokenPipe,
        };
        io::Error::new(kind, e.to_string())
    }
}
