//! Identifiers for autonomous systems.
//!
//! Two identifier spaces coexist:
//!
//! * [`AsId`] — the globally unique autonomous-system *number* (ASN) as it
//!   appears in registry data and BGP messages.
//! * [`AsIndex`] — a dense index `0..n` assigned by a [`Topology`] so that
//!   per-AS state can live in flat arrays on the simulation hot path.
//!
//! [`Topology`]: crate::Topology

use core::fmt;
use std::num::ParseIntError;
use std::str::FromStr;

/// An autonomous-system number (ASN), e.g. `AS98`.
///
/// This is the *external* identifier: stable across topologies and suitable
/// for display, parsing and persistence. Simulation engines should convert it
/// to an [`AsIndex`] via [`Topology::index_of`] once and work with indices.
///
/// # Examples
///
/// ```
/// use bgpsim_topology::AsId;
///
/// let a: AsId = "AS98".parse()?;
/// assert_eq!(a, AsId::new(98));
/// assert_eq!(a.to_string(), "AS98");
/// # Ok::<(), bgpsim_topology::ParseAsIdError>(())
/// ```
///
/// [`Topology::index_of`]: crate::Topology::index_of
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AsId(u32);

impl AsId {
    /// Creates an ASN from its numeric value.
    pub const fn new(asn: u32) -> Self {
        AsId(asn)
    }

    /// Returns the numeric ASN value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for AsId {
    fn from(asn: u32) -> Self {
        AsId(asn)
    }
}

impl From<AsId> for u32 {
    fn from(id: AsId) -> Self {
        id.0
    }
}

/// Error returned when parsing an [`AsId`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsIdError {
    kind: ParseAsIdErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseAsIdErrorKind {
    Empty,
    Int(ParseIntError),
}

impl fmt::Display for ParseAsIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseAsIdErrorKind::Empty => write!(f, "empty autonomous-system number"),
            ParseAsIdErrorKind::Int(e) => write!(f, "invalid autonomous-system number: {e}"),
        }
    }
}

impl std::error::Error for ParseAsIdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ParseAsIdErrorKind::Empty => None,
            ParseAsIdErrorKind::Int(e) => Some(e),
        }
    }
}

impl FromStr for AsId {
    type Err = ParseAsIdError;

    /// Parses either a bare number (`"98"`) or the `AS`-prefixed form
    /// (`"AS98"`, case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        let digits = s
            .strip_prefix("AS")
            .or_else(|| s.strip_prefix("as"))
            .or_else(|| s.strip_prefix("As"))
            .or_else(|| s.strip_prefix("aS"))
            .unwrap_or(s);
        if digits.is_empty() {
            return Err(ParseAsIdError {
                kind: ParseAsIdErrorKind::Empty,
            });
        }
        digits.parse::<u32>().map(AsId).map_err(|e| ParseAsIdError {
            kind: ParseAsIdErrorKind::Int(e),
        })
    }
}

/// A dense per-topology index in `0..topology.num_ases()`.
///
/// Indices are only meaningful relative to the [`Topology`] that produced
/// them; mixing indices across topologies is a logic error (it cannot be
/// detected at runtime and will silently address the wrong AS).
///
/// [`Topology`]: crate::Topology
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AsIndex(u32);

impl AsIndex {
    /// Creates an index from a raw `u32`.
    pub const fn new(raw: u32) -> Self {
        AsIndex(raw)
    }

    /// Returns the raw index value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, for direct array addressing.
    pub const fn usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AsIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for AsIndex {
    fn from(raw: u32) -> Self {
        AsIndex(raw)
    }
}

impl From<AsIndex> for u32 {
    fn from(ix: AsIndex) -> Self {
        ix.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asid_display_roundtrip() {
        let id = AsId::new(55857);
        assert_eq!(id.to_string(), "AS55857");
        assert_eq!("AS55857".parse::<AsId>().unwrap(), id);
        assert_eq!("55857".parse::<AsId>().unwrap(), id);
        assert_eq!("as55857".parse::<AsId>().unwrap(), id);
    }

    #[test]
    fn asid_parse_rejects_garbage() {
        assert!("".parse::<AsId>().is_err());
        assert!("AS".parse::<AsId>().is_err());
        assert!("ASxyz".parse::<AsId>().is_err());
        assert!("-3".parse::<AsId>().is_err());
        assert!("4294967296".parse::<AsId>().is_err());
    }

    #[test]
    fn asid_parse_error_displays() {
        let e = "AS".parse::<AsId>().unwrap_err();
        assert!(e.to_string().contains("empty"));
        let e = "ASzz".parse::<AsId>().unwrap_err();
        assert!(e.to_string().contains("invalid"));
    }

    #[test]
    fn asid_ordering_is_numeric() {
        assert!(AsId::new(2) < AsId::new(10));
    }

    #[test]
    fn asindex_helpers() {
        let ix = AsIndex::new(7);
        assert_eq!(ix.raw(), 7);
        assert_eq!(ix.usize(), 7);
        assert_eq!(ix.to_string(), "#7");
        assert_eq!(u32::from(ix), 7);
        assert_eq!(AsIndex::from(7u32), ix);
    }

    #[test]
    fn conversions() {
        assert_eq!(u32::from(AsId::new(5)), 5);
        assert_eq!(AsId::from(5u32), AsId::new(5));
    }
}
