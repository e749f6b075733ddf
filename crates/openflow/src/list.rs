//! An inline-first list for the forwarding path.
//!
//! Nearly every flow entry holds one instruction, and nearly every
//! instruction and group bucket one action. [`SmallList`] keeps a single
//! element inline and moves to the heap only when a list is longer, so a
//! fabric's tables own no heap block per entry. It derefs to a slice and
//! encodes exactly as `Vec<T>` does: the same length-prefixed snapshot
//! sequence and the same serde array.

use horse_types::snap::{Snap, SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::ops::Deref;

/// A list of `T` that stores one element inline.
#[derive(Clone)]
pub struct SmallList<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    /// Exactly one element, no heap.
    One(T),
    /// Any other length; an empty boxed slice allocates nothing.
    Many(Box<[T]>),
}

impl<T> SmallList<T> {
    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Many(vs) => vs,
        }
    }
}

impl<T> Deref for SmallList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T> IntoIterator for &'a SmallList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T> From<T> for SmallList<T> {
    fn from(v: T) -> Self {
        SmallList(Repr::One(v))
    }
}

impl<T> From<Vec<T>> for SmallList<T> {
    fn from(mut vs: Vec<T>) -> Self {
        if vs.len() == 1 {
            SmallList(Repr::One(vs.pop().expect("one element")))
        } else {
            SmallList(Repr::Many(vs.into_boxed_slice()))
        }
    }
}

impl<T: PartialEq> PartialEq for SmallList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for SmallList<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: fmt::Debug> fmt::Debug for SmallList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Serialize> Serialize for SmallList<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for SmallList<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::from_value(v).map(SmallList::from)
    }
}

impl<T: Snap> Snap for SmallList<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Vec::unsnap(r).map(SmallList::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, Bucket, FlowEntry, Instruction};
    use horse_types::PortNo;
    use std::mem::size_of;

    fn inline<T>(l: &SmallList<T>) -> bool {
        matches!(l.0, Repr::One(_))
    }

    #[test]
    fn one_element_is_inline_whatever_builds_it() {
        let a = Action::Output(PortNo(1));
        assert!(inline(&SmallList::from(a)));
        assert!(inline(&SmallList::<Action>::from(vec![a])));
        assert!(!inline(&SmallList::<Action>::from(vec![])));
        assert!(!inline(&SmallList::<Action>::from(vec![a, a])));
        assert_eq!(SmallList::<Action>::from(vec![a]), SmallList::from(a));
        assert_eq!(SmallList::<Action>::from(vec![a, a]).as_slice(), &[a, a]);
        assert!(SmallList::<Action>::from(vec![]).is_empty());
        match Instruction::output(PortNo(2)) {
            Instruction::ApplyActions(actions) => assert!(inline(&actions)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn entries_and_buckets_are_no_larger_than_with_vecs() {
        assert!(size_of::<SmallList<Instruction>>() <= size_of::<Vec<Instruction>>());
        assert!(size_of::<SmallList<Action>>() <= size_of::<Vec<Action>>());
        assert!(size_of::<Bucket>() <= 24, "{}", size_of::<Bucket>());
        assert!(size_of::<FlowEntry>() <= 144, "{}", size_of::<FlowEntry>());
    }
}
