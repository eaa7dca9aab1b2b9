//! The crate-wide error type.
//!
//! The index crates report failures through [`SearchError`] (they cannot
//! see this crate); [`TdtsError`] wraps it and adds the conditions that
//! only arise at the engine and service layers — admission control,
//! deadlines, and shutdown.

use std::error::Error;
use std::fmt;
use tdts_gpu_sim::SearchError;

/// Everything that can go wrong building an index, running a search, or
/// interacting with the query service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TdtsError {
    /// A device or kernel failure from the simulator layer.
    Search(SearchError),
    /// A configuration the engine layer rejects before touching a device.
    InvalidConfig(String),
    /// A request missed its deadline before a result was produced.
    Timeout,
    /// The service's admission queue is full; retry later.
    Overloaded,
    /// The service is shutting down and no longer accepts or completes
    /// requests.
    ShuttingDown,
}

impl fmt::Display for TdtsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdtsError::Search(e) => write!(f, "search failed: {e}"),
            TdtsError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            TdtsError::Timeout => write!(f, "request deadline exceeded"),
            TdtsError::Overloaded => write!(f, "service overloaded: admission queue is full"),
            TdtsError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl Error for TdtsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TdtsError::Search(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SearchError> for TdtsError {
    fn from(e: SearchError) -> TdtsError {
        TdtsError::Search(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        assert_eq!(TdtsError::Timeout.to_string(), "request deadline exceeded");
        assert!(TdtsError::Overloaded.to_string().contains("admission queue"));
        let wrapped = TdtsError::from(SearchError::EmptyDataset);
        assert!(wrapped.to_string().starts_with("search failed:"));
    }

    #[test]
    fn source_chains_to_search_error() {
        let e = TdtsError::Search(SearchError::EmptyDataset);
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&TdtsError::Timeout).is_none());
    }
}
