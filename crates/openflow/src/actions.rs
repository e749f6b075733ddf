//! Actions and instructions.
//!
//! The subset of OpenFlow 1.3 semantics the paper's policies compile to:
//! output (physical port, controller, flood), group indirection (load
//! balancing / failover), header rewrites (MAC, VLAN), drop, plus the
//! `Meter` and `GotoTable` instructions.

use crate::list::SmallList;
use horse_types::id::{GroupId, MeterId};
use horse_types::{MacAddr, PortNo, Snap, TableId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A data-plane action applied to a matching flow.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize, Snap)]
pub enum Action {
    /// Forward out of a port (physical, `CONTROLLER` or `FLOOD`).
    Output(PortNo),
    /// Hand off to a group entry.
    Group(GroupId),
    /// Rewrite the destination MAC.
    SetEthDst(MacAddr),
    /// Rewrite the source MAC.
    SetEthSrc(MacAddr),
    /// Push/replace the VLAN tag.
    SetVlan(u16),
    /// Remove the VLAN tag.
    StripVlan,
    /// Explicitly drop.
    Drop,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Output(p) => write!(f, "output:{p}"),
            Action::Group(g) => write!(f, "group:{g}"),
            Action::SetEthDst(m) => write!(f, "set_eth_dst:{m}"),
            Action::SetEthSrc(m) => write!(f, "set_eth_src:{m}"),
            Action::SetVlan(v) => write!(f, "set_vlan:{v}"),
            Action::StripVlan => write!(f, "strip_vlan"),
            Action::Drop => write!(f, "drop"),
        }
    }
}

/// A flow-entry instruction.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Snap)]
pub enum Instruction {
    /// Apply these actions immediately.
    ApplyActions(SmallList<Action>),
    /// Rate-limit through a meter before the actions run.
    Meter(MeterId),
    /// Continue matching in a later table.
    GotoTable(TableId),
}

impl Instruction {
    /// Single-output shorthand.
    pub fn output(port: PortNo) -> Self {
        Instruction::ApplyActions(Action::Output(port).into())
    }

    /// Drop shorthand.
    pub fn drop() -> Self {
        Instruction::ApplyActions(Action::Drop.into())
    }

    /// Send-to-controller shorthand.
    pub fn to_controller() -> Self {
        Instruction::ApplyActions(Action::Output(PortNo::CONTROLLER).into())
    }

    /// Group shorthand.
    pub fn group(g: GroupId) -> Self {
        Instruction::ApplyActions(Action::Group(g).into())
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::ApplyActions(a) => {
                let s: Vec<String> = a.iter().map(|x| x.to_string()).collect();
                write!(f, "apply[{}]", s.join(","))
            }
            Instruction::Meter(m) => write!(f, "meter:{m}"),
            Instruction::GotoTable(t) => write!(f, "goto:{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorthands() {
        assert_eq!(
            Instruction::output(PortNo(3)),
            Instruction::ApplyActions(vec![Action::Output(PortNo(3))].into())
        );
        assert_eq!(
            Instruction::drop(),
            Instruction::ApplyActions(vec![Action::Drop].into())
        );
        assert_eq!(
            Instruction::to_controller(),
            Instruction::ApplyActions(vec![Action::Output(PortNo::CONTROLLER)].into())
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Instruction::output(PortNo(2)).to_string(),
            "apply[output:port#2]"
        );
        assert_eq!(Instruction::Meter(MeterId(1)).to_string(), "meter:meter#1");
        assert_eq!(
            Instruction::GotoTable(TableId(1)).to_string(),
            "goto:table#1"
        );
        assert_eq!(Action::StripVlan.to_string(), "strip_vlan");
    }
}
