//! `#[derive(Snap)]`: every shape the derive accepts round-trips
//! bit-exactly, every truncation fails, and a bad enum tag fails at its
//! own offset.

use horse_types::snap::{Snap, SnapReader, SnapWriter};
use horse_types::{FlowId, Rate};

#[derive(Debug, Clone, PartialEq, Snap)]
struct Named {
    id: FlowId,
    rate: Rate,
    label: String,
    shape: Shape,
    boxed: Box<Shape>,
    /// Host-side cache: not written, restored as `Default`.
    #[serde(skip)]
    cache: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Snap)]
struct Pair(u32, f64);

#[derive(Debug, Clone, PartialEq, Snap)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Snap)]
enum Shape {
    Empty,
    Pair(Pair, Option<u16>),
    Span {
        from: f64,
        to: f64,
        #[serde(skip)]
        memo: u8,
    },
    Nested(Box<Shape>, Marker),
}

fn encode<T: Snap>(v: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.snap(&mut w);
    w.into_bytes()
}

fn decode<T: Snap>(bytes: &[u8]) -> Result<T, horse_types::SnapError> {
    let mut r = SnapReader::new(bytes);
    let v = T::unsnap(&mut r)?;
    assert!(r.is_exhausted(), "decoder left {} bytes", r.remaining());
    Ok(v)
}

fn sample() -> Named {
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    Named {
        id: FlowId(42),
        rate: Rate(-0.0),
        label: "héllo".into(),
        shape: Shape::Span {
            from: nan,
            to: -0.0,
            memo: 0,
        },
        boxed: Box::new(Shape::Nested(
            Box::new(Shape::Pair(Pair(7, f64::NEG_INFINITY), Some(9))),
            Marker,
        )),
        cache: Vec::new(),
    }
}

#[test]
fn every_shape_round_trips_bitwise() {
    let v = sample();
    let bytes = encode(&v);
    let back: Named = decode(&bytes).unwrap();
    assert_eq!(encode(&back), bytes, "re-encoding is byte-identical");
    assert_eq!(back.rate.0.to_bits(), (-0.0f64).to_bits());
    match &back.shape {
        Shape::Span { from, to, .. } => {
            assert_eq!(from.to_bits(), 0x7ff8_0000_dead_beef, "NaN payload kept");
            assert_eq!(to.to_bits(), (-0.0f64).to_bits());
        }
        other => panic!("decoded {other:?}"),
    }
    assert_eq!(back.boxed, v.boxed);
    for shape in [Shape::Empty, Shape::Pair(Pair(1, 2.5), None)] {
        assert_eq!(decode::<Shape>(&encode(&shape)).unwrap(), shape);
    }
    assert_eq!(decode::<Marker>(&encode(&Marker)).unwrap(), Marker);
}

#[test]
fn skipped_fields_are_not_written_and_decode_as_default() {
    let mut v = sample();
    let bytes = encode(&v);
    v.cache = vec![1, 2, 3];
    v.shape = Shape::Span {
        from: 1.0,
        to: 2.0,
        memo: 9,
    };
    let mut plain = v.clone();
    plain.cache.clear();
    plain.shape = Shape::Span {
        from: 1.0,
        to: 2.0,
        memo: 0,
    };
    assert_eq!(encode(&v), encode(&plain));
    assert_eq!(decode::<Named>(&encode(&v)).unwrap(), plain);
    assert_ne!(encode(&v), bytes);
}

#[test]
fn wire_form_is_declaration_order() {
    // Tag 1 (`Pair`), then `Pair`'s fields in order, then the `Option`.
    let bytes = encode(&Shape::Pair(Pair(5, 0.5), Some(3)));
    let mut want = vec![1u8];
    want.extend(5u32.to_le_bytes());
    want.extend(0.5f64.to_bits().to_le_bytes());
    want.extend([1u8]);
    want.extend(3u16.to_le_bytes());
    assert_eq!(bytes, want);
}

#[test]
fn every_truncation_is_an_error() {
    let bytes = encode(&sample());
    for cut in 0..bytes.len() {
        assert!(
            Named::unsnap(&mut SnapReader::new(&bytes[..cut])).is_err(),
            "a cut at {cut} of {} bytes decoded",
            bytes.len()
        );
    }
}

#[test]
fn an_out_of_range_tag_names_its_offset() {
    let mut bytes = encode(&sample());
    // The `shape` tag follows id (8), rate (8) and the label (8 + 6).
    let at = 8 + 8 + 8 + "héllo".len();
    assert_eq!(bytes[at], 2, "the Span tag");
    bytes[at] = 4;
    let err = decode::<Named>(&bytes).unwrap_err();
    assert_eq!(err.at, at, "{err}");
    assert!(err.msg.contains("Shape"), "{err}");
}
