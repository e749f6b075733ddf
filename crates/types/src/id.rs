//! Strongly-typed identifiers.
//!
//! Every entity in the simulator (node, port, link, flow, OpenFlow table,
//! group, meter) gets its own newtype so that indices cannot be mixed up at
//! compile time. All ids are small `Copy` integers; display is `kind#n`.

use crate::snap::Snap;
use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default, Snap,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds the id from a raw usize index.
            #[inline]
            pub const fn from_index(i: usize) -> Self {
                $name(i as $inner)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "#{}"), self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "#{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a topology node (host or switch).
    NodeId, u32, "node"
);
id_type!(
    /// Identifier of a directed link (each physical cable is two directed links).
    LinkId, u32, "link"
);
id_type!(
    /// Identifier of an active data flow.
    FlowId, u64, "flow"
);
id_type!(
    /// OpenFlow group identifier.
    GroupId, u32, "group"
);
id_type!(
    /// OpenFlow meter identifier.
    MeterId, u32, "meter"
);

/// A switch port number (1-based like OpenFlow; 0 is reserved/invalid).
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default, Snap,
)]
pub struct PortNo(pub u16);

impl PortNo {
    /// The OpenFlow `CONTROLLER` logical port.
    pub const CONTROLLER: PortNo = PortNo(u16::MAX);
    /// The OpenFlow `FLOOD` logical port (all ports except ingress).
    pub const FLOOD: PortNo = PortNo(u16::MAX - 1);
    /// Invalid/unset port.
    pub const NONE: PortNo = PortNo(0);

    /// True for physical (non-logical, non-zero) ports.
    pub const fn is_physical(self) -> bool {
        self.0 != 0 && self.0 < PortNo::FLOOD.0
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PortNo::CONTROLLER => write!(f, "port#CONTROLLER"),
            PortNo::FLOOD => write!(f, "port#FLOOD"),
            _ => write!(f, "port#{}", self.0),
        }
    }
}

impl fmt::Debug for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An OpenFlow table id within a switch pipeline (0 is the first table).
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default, Snap,
)]
pub struct TableId(pub u8);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

impl fmt::Debug for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

pub use self::{GroupId as OfGroupId, MeterId as OfMeterId};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip_index() {
        assert_eq!(NodeId::from_index(42).index(), 42);
        assert_eq!(FlowId::from_index(7).index(), 7);
        assert_eq!(LinkId::from(3u32).0, 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(5).to_string(), "node#5");
        assert_eq!(PortNo(3).to_string(), "port#3");
        assert_eq!(PortNo::CONTROLLER.to_string(), "port#CONTROLLER");
        assert_eq!(TableId(0).to_string(), "table#0");
    }

    #[test]
    fn port_classification() {
        assert!(PortNo(1).is_physical());
        assert!(!PortNo::NONE.is_physical());
        assert!(!PortNo::CONTROLLER.is_physical());
        assert!(!PortNo::FLOOD.is_physical());
    }

    #[test]
    fn ids_are_ordered() {
        assert!(NodeId(1) < NodeId(2));
        assert!(FlowId(9) > FlowId(3));
    }
}
