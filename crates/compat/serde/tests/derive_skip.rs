//! `#[serde(skip)]` in the vendored derive: the field is omitted on
//! write and rebuilt with `Default::default()` on read.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Cached {
    kept: u32,
    #[serde(skip)]
    scratch: u64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Wrapped {
    Entry {
        kept: u32,
        #[serde(skip)]
        scratch: u64,
    },
}

#[test]
fn skipped_field_is_not_written_and_defaults_on_read() {
    let v = Cached {
        kept: 7,
        scratch: 99,
    }
    .to_value();
    assert_eq!(
        v,
        Value::Map(vec![("kept".to_string(), 7u32.to_value())]),
        "only the kept field is on the wire"
    );
    assert_eq!(
        Cached::from_value(&v).unwrap(),
        Cached {
            kept: 7,
            scratch: 0
        }
    );
}

#[test]
fn skipped_field_on_the_wire_is_ignored() {
    let v = Value::Map(vec![
        ("kept".to_string(), 7u32.to_value()),
        ("scratch".to_string(), 99u64.to_value()),
    ]);
    assert_eq!(Cached::from_value(&v).unwrap().scratch, 0);
}

#[test]
fn skip_works_in_struct_variants() {
    let w = Wrapped::Entry {
        kept: 1,
        scratch: 5,
    };
    let back = Wrapped::from_value(&w.to_value()).unwrap();
    assert_eq!(
        back,
        Wrapped::Entry {
            kept: 1,
            scratch: 0
        }
    );
}
