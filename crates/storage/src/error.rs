//! Operation-level failures of the storage service.
//!
//! [`crate::service::StorageService::store`] and
//! [`crate::service::StorageService::retrieve`] return these instead of
//! panicking or silently succeeding: a path that does not resolve is
//! [`ServiceError::NotFound`], and under an injected
//! [`mcs_faults::FaultPlan`] an operation that exhausts its retry budget
//! surfaces *which* component defeated it, so the replay layer can account
//! degraded-mode behaviour per failure class.

use std::fmt;

/// Why a store or retrieve ultimately failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The metadata server was unavailable for every attempt.
    MetadataUnavailable {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Every front-end was in an outage window on every attempt.
    AllFrontendsDown {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The one front-end holding the content stayed down (retrievals
    /// cannot fail over: the content has a single home).
    FrontendUnavailable {
        /// The unavailable front-end.
        frontend: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A chunk kept timing out on a browned-out front-end.
    ChunkTimeout {
        /// The front-end the transfers targeted.
        frontend: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The path (or URL) does not resolve — not a fault, just absent.
    NotFound,
    /// A store's manifest does not list one chunk digest per chunk of its
    /// file size — a client error, not a fault.
    MalformedManifest {
        /// Chunk digests the manifest lists.
        chunks: u64,
        /// Chunks a file of its size has.
        expected: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::MetadataUnavailable { attempts } => {
                write!(f, "metadata server unavailable after {attempts} attempt(s)")
            }
            ServiceError::AllFrontendsDown { attempts } => {
                write!(f, "all front-ends down after {attempts} attempt(s)")
            }
            ServiceError::FrontendUnavailable { frontend, attempts } => {
                write!(
                    f,
                    "front-end {frontend} unavailable after {attempts} attempt(s)"
                )
            }
            ServiceError::ChunkTimeout { frontend, attempts } => {
                write!(
                    f,
                    "chunk transfer to front-end {frontend} timed out after {attempts} attempt(s)"
                )
            }
            ServiceError::NotFound => write!(f, "path not found"),
            ServiceError::MalformedManifest { chunks, expected } => write!(
                f,
                "manifest lists {chunks} chunk digest(s) for a file of {expected} chunk(s)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// True when the failure was fault-induced (as opposed to the path
    /// simply not existing, or a malformed request) — the replay layer's
    /// availability accounting only counts these against the service.
    pub fn is_fault(&self) -> bool {
        !matches!(
            self,
            ServiceError::NotFound | ServiceError::MalformedManifest { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_component_and_attempts() {
        let e = ServiceError::MetadataUnavailable { attempts: 4 };
        assert_eq!(
            e.to_string(),
            "metadata server unavailable after 4 attempt(s)"
        );
        let e = ServiceError::FrontendUnavailable {
            frontend: 2,
            attempts: 3,
        };
        assert!(e.to_string().contains("front-end 2"));
        assert!(e.is_fault());
        assert!(!ServiceError::NotFound.is_fault());
        assert_eq!(ServiceError::NotFound.to_string(), "path not found");
        let e = ServiceError::MalformedManifest {
            chunks: 2,
            expected: 1,
        };
        assert_eq!(
            e.to_string(),
            "manifest lists 2 chunk digest(s) for a file of 1 chunk(s)"
        );
        assert!(!e.is_fault());
    }
}
