//! Engine error type.

use std::fmt;

/// Errors surfaced by the stream engine.
#[derive(Debug)]
pub enum EngineError {
    /// A clustering step failed.
    Core(pmkm_core::Error),
    /// Reading input data failed.
    Data(pmkm_data::DataError),
    /// Every consumer of a stream edge hung up before the stream finished
    /// — the pipeline is broken (every partial worker failed).
    Disconnected(&'static str),
    /// Invalid plan or resource specification.
    InvalidPlan(String),
    /// An operator step panicked.
    OperatorPanic(String),
    /// A chunk carried non-finite coordinates and the fault policy does
    /// not allow quarantining it.
    PoisonedChunk {
        /// Owning cell index.
        cell: u32,
        /// Partition index of the poisoned chunk.
        chunk_id: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "clustering error: {e}"),
            EngineError::Data(e) => write!(f, "data error: {e}"),
            EngineError::Disconnected(edge) => {
                write!(f, "stream edge '{edge}' disconnected mid-stream")
            }
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::OperatorPanic(op) => write!(f, "operator '{op}' panicked"),
            EngineError::PoisonedChunk { cell, chunk_id } => {
                write!(f, "chunk {chunk_id} of cell {cell} has non-finite coordinates")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pmkm_core::Error> for EngineError {
    fn from(e: pmkm_core::Error) -> Self {
        EngineError::Core(e)
    }
}

impl From<pmkm_data::DataError> for EngineError {
    fn from(e: pmkm_data::DataError) -> Self {
        EngineError::Data(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, EngineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = EngineError::Core(pmkm_core::Error::ZeroK);
        assert!(e.to_string().contains("clustering"));
        use std::error::Error;
        assert!(e.source().is_some());
        assert!(EngineError::Disconnected("chunks").to_string().contains("chunks"));
        assert!(EngineError::OperatorPanic("scan".into()).to_string().contains("scan"));
        let poisoned = EngineError::PoisonedChunk { cell: 9, chunk_id: 2 };
        assert!(poisoned.to_string().contains("chunk 2"));
        assert!(poisoned.to_string().contains("cell 9"));
    }
}
