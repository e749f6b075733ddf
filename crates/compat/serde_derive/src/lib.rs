//! Derive macros for the vendored `serde` subset.
//!
//! Implemented without `syn`/`quote` (neither is available offline): the
//! input item is parsed directly from the `proc_macro` token stream into a
//! small shape model, and the impls are emitted as source text. Supports
//! the shapes this workspace uses:
//!
//! * named/tuple/unit structs (1-field tuple structs are transparent
//!   newtypes, as in real serde),
//! * enums with unit, tuple and struct variants, optionally
//!   internally tagged via `#[serde(tag = "…")]`,
//! * `#[serde(rename_all = "snake_case")]` and field-level
//!   `#[serde(default)]` / `#[serde(default = "path")]` (the path names a
//!   nullary function visible at the derive site, as in real serde),
//! * `#[serde(skip)]` on a named field: omitted on write,
//!   `Default::default()` on read,
//! * explicit discriminants (`Tcp = 6`) are accepted and ignored.
//!
//! Generics are intentionally unsupported — no workspace type needs them.
//!
//! The crate also hosts one non-serde derive, `Snap`, the binary
//! checkpoint codec of `horse_types::snap` (re-exported there). It shares
//! this parser's shape model, so the workspace has one token parser for
//! every derive: fields encode in declaration order, an enum writes a
//! `u8` tag in declaration order before the variant's fields, and a
//! `#[serde(skip)]` field is not written and decodes as `Default`.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

/// How a missing field is filled during deserialization.
#[derive(Default, Clone, PartialEq)]
enum FieldDefault {
    /// No default: a missing field is an error (unless the type itself
    /// reports an `absent()` value, e.g. `Option`).
    #[default]
    None,
    /// `#[serde(default)]` — `Default::default()`.
    Std,
    /// `#[serde(default = "path")]` — call the named nullary function.
    Path(String),
}

#[derive(Default, Clone)]
struct SerdeAttrs {
    rename_all: Option<String>,
    tag: Option<String>,
    default: FieldDefault,
    skip: bool,
}

struct Field {
    name: String,
    default: FieldDefault,
    skip: bool,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Data {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Container {
    name: String,
    attrs: SerdeAttrs,
    data: Data,
}

/// Derives `serde::Serialize` for the annotated item.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, |c| Ok(gen_serialize(c)))
}

/// Derives `serde::Deserialize` for the annotated item.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, |c| Ok(gen_deserialize(c)))
}

/// Derives `horse_types::snap::Snap` for the annotated item (see the
/// crate doc for the wire form).
#[proc_macro_derive(Snap, attributes(serde))]
pub fn derive_snap(input: TokenStream) -> TokenStream {
    expand(input, gen_snap)
}

/// Parses the item and generates one impl, or a `compile_error!` naming
/// what the vendored derives do not support.
fn expand(input: TokenStream, gen: fn(&Container) -> Result<String, String>) -> TokenStream {
    let src = parse_container(input)
        .and_then(|c| gen(&c))
        .unwrap_or_else(|msg| format!("::core::compile_error!({msg:?});"));
    src.parse().expect("generated impl parses")
}

// ---------------------------------------------------------------- parsing

type Cursor = Peekable<proc_macro::token_stream::IntoIter>;

fn parse_container(input: TokenStream) -> Result<Container, String> {
    let mut it: Cursor = input.into_iter().peekable();
    let attrs = parse_attrs(&mut it);
    skip_visibility(&mut it);
    let keyword = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde derive: expected item name, found {other:?}"),
    };
    if matches!(&it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "the vendored derives do not support generic type `{name}`"
        ));
    }
    let data = match keyword.as_str() {
        "struct" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Data::UnitStruct,
            other => panic!("serde derive: unexpected struct body {other:?}"),
        },
        "enum" => match it.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde derive: unexpected enum body {other:?}"),
        },
        other => panic!("serde derive: expected `struct` or `enum`, found `{other}`"),
    };
    Ok(Container { name, attrs, data })
}

/// Consumes leading `#[...]` attributes, extracting serde ones.
fn parse_attrs(it: &mut Cursor) -> SerdeAttrs {
    let mut attrs = SerdeAttrs::default();
    loop {
        match it.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                it.next();
                match it.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        parse_one_attr(g.stream(), &mut attrs);
                    }
                    other => panic!("serde derive: malformed attribute {other:?}"),
                }
            }
            _ => return attrs,
        }
    }
}

fn parse_one_attr(stream: TokenStream, attrs: &mut SerdeAttrs) {
    let mut it = stream.into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return, // doc comment, repr, non-serde derive helper — ignore
    }
    let Some(TokenTree::Group(args)) = it.next() else {
        return;
    };
    let mut ait: Cursor = args.stream().into_iter().peekable();
    while let Some(tt) = ait.next() {
        let TokenTree::Ident(key) = tt else { continue };
        let key = key.to_string();
        let value = match ait.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                ait.next();
                match ait.next() {
                    Some(TokenTree::Literal(l)) => Some(unquote(&l.to_string())),
                    other => {
                        panic!("serde derive: expected literal after `{key} =`, found {other:?}")
                    }
                }
            }
            _ => None,
        };
        match (key.as_str(), value) {
            ("rename_all", Some(v)) => attrs.rename_all = Some(v),
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("default", None) => attrs.default = FieldDefault::Std,
            ("default", Some(path)) => attrs.default = FieldDefault::Path(path),
            ("skip", None) => attrs.skip = true,
            (other, _) => {
                panic!("serde derive (vendored): unsupported serde attribute `{other}`")
            }
        }
        // skip trailing comma
        if matches!(ait.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            ait.next();
        }
    }
}

fn skip_visibility(it: &mut Cursor) {
    if matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Skips the tokens of one type, stopping before a top-level `,`.
/// Tracks `<`/`>` depth so commas inside generics don't terminate early
/// (grouped tokens — parens, brackets — arrive as single trees already).
fn skip_type(it: &mut Cursor) {
    let mut angle: i32 = 0;
    while let Some(tt) = it.peek() {
        match tt {
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return,
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            _ => {}
        }
        it.next();
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut it: Cursor = stream.into_iter().peekable();
    while it.peek().is_some() {
        let attrs = parse_attrs(&mut it);
        if it.peek().is_none() {
            break;
        }
        skip_visibility(&mut it);
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde derive: expected field name, found {other:?}"),
        };
        match it.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde derive: expected `:` after field `{name}`, found {other:?}"),
        }
        skip_type(&mut it);
        fields.push(Field {
            name,
            default: attrs.default.clone(),
            skip: attrs.skip,
        });
        if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            it.next();
        }
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut it: Cursor = stream.into_iter().peekable();
    let mut count = 0;
    while it.peek().is_some() {
        let attrs = parse_attrs(&mut it);
        if it.peek().is_none() {
            break;
        }
        if attrs.skip {
            panic!("serde derive (vendored): `skip` is not supported on tuple fields");
        }
        skip_visibility(&mut it);
        skip_type(&mut it);
        count += 1;
        if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            it.next();
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut it: Cursor = stream.into_iter().peekable();
    while it.peek().is_some() {
        let _attrs = parse_attrs(&mut it);
        if it.peek().is_none() {
            break;
        }
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde derive: expected variant name, found {other:?}"),
        };
        let kind = match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                it.next();
                VariantKind::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                it.next();
                VariantKind::Tuple(n)
            }
            _ => VariantKind::Unit,
        };
        // explicit discriminant: `= <expr>` — skip to the comma
        if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            it.next();
            while let Some(tt) = it.peek() {
                if matches!(tt, TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                it.next();
            }
        }
        variants.push(Variant { name, kind });
        if matches!(it.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            it.next();
        }
    }
    variants
}

fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

/// `LoadBalancing` → `load_balancing` (the only rename rule in use).
fn rename(name: &str, rule: Option<&str>) -> String {
    match rule {
        Some("snake_case") => {
            let mut out = String::new();
            for (i, ch) in name.chars().enumerate() {
                if ch.is_ascii_uppercase() {
                    if i > 0 {
                        out.push('_');
                    }
                    out.push(ch.to_ascii_lowercase());
                } else {
                    out.push(ch);
                }
            }
            out
        }
        Some(other) => panic!("serde derive (vendored): unsupported rename_all rule `{other}`"),
        None => name.to_string(),
    }
}

// ---------------------------------------------------------------- codegen

fn gen_serialize(c: &Container) -> String {
    let name = &c.name;
    let body = match &c.data {
        Data::NamedStruct(fields) => {
            let mut s = String::from(
                "let mut entries: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n",
            );
            for f in fields.iter().filter(|f| !f.skip) {
                s.push_str(&format!(
                    "entries.push((\"{n}\".to_string(), ::serde::Serialize::to_value(&self.{n})));\n",
                    n = f.name
                ));
            }
            s.push_str("::serde::Value::Map(entries)");
            s
        }
        Data::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Data::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Data::UnitStruct => "::serde::Value::Null".to_string(),
        Data::Enum(variants) => {
            let rule = c.attrs.rename_all.as_deref();
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                let wire = rename(vname, rule);
                let arm = match (&v.kind, c.attrs.tag.as_deref()) {
                    (VariantKind::Unit, None) => format!(
                        "{name}::{vname} => ::serde::Value::Str(\"{wire}\".to_string()),\n"
                    ),
                    (VariantKind::Unit, Some(tag)) => format!(
                        "{name}::{vname} => ::serde::Value::Map(vec![(\"{tag}\".to_string(), ::serde::Value::Str(\"{wire}\".to_string()))]),\n"
                    ),
                    (VariantKind::Tuple(n), None) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::to_value(f0)".to_string()
                        } else {
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
                        };
                        format!(
                            "{name}::{vname}({}) => ::serde::Value::Map(vec![(\"{wire}\".to_string(), {inner})]),\n",
                            binds.join(", ")
                        )
                    }
                    (VariantKind::Tuple(_), Some(_)) => panic!(
                        "serde derive: tuple variant `{vname}` cannot be internally tagged"
                    ),
                    (VariantKind::Named(fields), tag) => {
                        let binds: Vec<String> =
                            fields.iter().map(|f| f.name.clone()).collect();
                        let mut push = String::new();
                        for f in fields.iter().filter(|f| !f.skip) {
                            push.push_str(&format!(
                                "entries.push((\"{n}\".to_string(), ::serde::Serialize::to_value({n})));\n",
                                n = f.name
                            ));
                        }
                        match tag {
                            Some(tag) => format!(
                                "{name}::{vname} {{ {binds} }} => {{\n\
                                 let mut entries = vec![(\"{tag}\".to_string(), ::serde::Value::Str(\"{wire}\".to_string()))];\n\
                                 {push}\
                                 ::serde::Value::Map(entries)\n}}\n",
                                binds = binds.join(", ")
                            ),
                            None => format!(
                                "{name}::{vname} {{ {binds} }} => {{\n\
                                 let mut entries: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new();\n\
                                 {push}\
                                 ::serde::Value::Map(vec![(\"{wire}\".to_string(), ::serde::Value::Map(entries))])\n}}\n",
                                binds = binds.join(", ")
                            ),
                        }
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
}

/// The `None =>` arm for a missing struct field.
fn missing_field_arm(container: &str, field: &Field) -> String {
    match &field.default {
        FieldDefault::Std => "::std::default::Default::default()".to_string(),
        FieldDefault::Path(path) => format!("{path}()"),
        FieldDefault::None => format!(
            "match ::serde::Deserialize::absent() {{\n\
             ::std::option::Option::Some(d) => d,\n\
             ::std::option::Option::None => return ::std::result::Result::Err(\
             ::serde::Error::custom(\"missing field `{n}` in {container}\")),\n}}",
            n = field.name
        ),
    }
}

/// Builds a `Name { field: …, … }` literal from map entries bound to `m`.
fn named_fields_from_map(path: &str, container: &str, fields: &[Field]) -> String {
    let mut inits = String::new();
    for f in fields {
        if f.skip {
            inits.push_str(&format!(
                "{}: ::std::default::Default::default(),\n",
                f.name
            ));
            continue;
        }
        inits.push_str(&format!(
            "{n}: match ::serde::map_get(m, \"{n}\") {{\n\
             ::std::option::Option::Some(fv) => ::serde::Deserialize::from_value(fv)\
             .map_err(|e| e.in_path(\"{n}\"))?,\n\
             ::std::option::Option::None => {missing},\n}},\n",
            n = f.name,
            missing = missing_field_arm(container, f)
        ));
    }
    format!("{path} {{\n{inits}}}")
}

/// Builds `Name(…)` (tuple) from a sequence bound to `seq`.
fn tuple_from_seq(path: &str, n: usize) -> String {
    let items: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "::serde::Deserialize::from_value(&seq[{i}]).map_err(|e| e.in_path(\"[{i}]\"))?"
            )
        })
        .collect();
    format!(
        "{{ if seq.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::custom(\
         format!(\"expected {n} elements, found {{}}\", seq.len()))); }}\n\
         {path}({items}) }}",
        items = items.join(", ")
    )
}

fn gen_deserialize(c: &Container) -> String {
    let name = &c.name;
    let body = match &c.data {
        Data::NamedStruct(fields) => format!(
            "let m = v.as_map().ok_or_else(|| ::serde::Error::custom(\
             format!(\"expected map for struct {name}, found {{}}\", v.kind())))?;\n\
             ::std::result::Result::Ok({})",
            named_fields_from_map(name, &format!("struct {name}"), fields)
        ),
        Data::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Data::TupleStruct(n) => format!(
            "let seq = v.as_seq().ok_or_else(|| ::serde::Error::custom(\
             format!(\"expected sequence for tuple struct {name}, found {{}}\", v.kind())))?;\n\
             ::std::result::Result::Ok({})",
            tuple_from_seq(name, *n)
        ),
        Data::UnitStruct => format!("::std::result::Result::Ok({name})"),
        Data::Enum(variants) => gen_deserialize_enum(c, variants),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n}}\n}}\n"
    )
}

fn gen_deserialize_enum(c: &Container, variants: &[Variant]) -> String {
    let name = &c.name;
    let rule = c.attrs.rename_all.as_deref();
    let known: Vec<String> = variants
        .iter()
        .map(|v| format!("`{}`", rename(&v.name, rule)))
        .collect();
    let known = known.join(", ");

    if let Some(tag) = c.attrs.tag.as_deref() {
        // internally tagged: { "<tag>": "<variant>", ...fields }
        let mut arms = String::new();
        for v in variants {
            let wire = rename(&v.name, rule);
            let build = match &v.kind {
                VariantKind::Unit => {
                    format!("::std::result::Result::Ok({name}::{})", v.name)
                }
                VariantKind::Named(fields) => format!(
                    "::std::result::Result::Ok({})",
                    named_fields_from_map(
                        &format!("{name}::{}", v.name),
                        &format!("variant {name}::{}", v.name),
                        fields
                    )
                ),
                VariantKind::Tuple(_) => panic!(
                    "serde derive: tuple variant `{}` cannot be internally tagged",
                    v.name
                ),
            };
            arms.push_str(&format!("\"{wire}\" => {build},\n"));
        }
        return format!(
            "let m = v.as_map().ok_or_else(|| ::serde::Error::custom(\
             format!(\"expected map for enum {name}, found {{}}\", v.kind())))?;\n\
             let tag_v = ::serde::map_get(m, \"{tag}\").ok_or_else(|| \
             ::serde::Error::custom(\"missing tag `{tag}` for enum {name}\"))?;\n\
             let tag_s = tag_v.as_str().ok_or_else(|| \
             ::serde::Error::custom(\"tag `{tag}` must be a string\"))?;\n\
             match tag_s {{\n{arms}\
             other => ::std::result::Result::Err(::serde::Error::custom(\
             format!(\"unknown variant `{{other}}` of enum {name}, expected one of {known}\"))),\n}}"
        );
    }

    // externally tagged (serde default)
    let mut str_arms = String::new();
    let mut map_arms = String::new();
    for v in variants {
        let wire = rename(&v.name, rule);
        match &v.kind {
            VariantKind::Unit => {
                str_arms.push_str(&format!(
                    "\"{wire}\" => ::std::result::Result::Ok({name}::{}),\n",
                    v.name
                ));
            }
            VariantKind::Tuple(1) => {
                map_arms.push_str(&format!(
                    "\"{wire}\" => ::std::result::Result::Ok({name}::{}(\
                     ::serde::Deserialize::from_value(inner).map_err(|e| e.in_path(\"{wire}\"))?)),\n",
                    v.name
                ));
            }
            VariantKind::Tuple(n) => {
                map_arms.push_str(&format!(
                    "\"{wire}\" => {{ let seq = inner.as_seq().ok_or_else(|| \
                     ::serde::Error::custom(\"expected sequence for variant {wire}\"))?;\n\
                     ::std::result::Result::Ok({}) }},\n",
                    tuple_from_seq(&format!("{name}::{}", v.name), *n)
                ));
            }
            VariantKind::Named(fields) => {
                map_arms.push_str(&format!(
                    "\"{wire}\" => {{ let m = inner.as_map().ok_or_else(|| \
                     ::serde::Error::custom(\"expected map for variant {wire}\"))?;\n\
                     ::std::result::Result::Ok({}) }},\n",
                    named_fields_from_map(
                        &format!("{name}::{}", v.name),
                        &format!("variant {name}::{}", v.name),
                        fields
                    )
                ));
            }
        }
    }
    format!(
        "match v {{\n\
         ::serde::Value::Str(s) => match s.as_str() {{\n{str_arms}\
         other => ::std::result::Result::Err(::serde::Error::custom(\
         format!(\"unknown variant `{{other}}` of enum {name}, expected one of {known}\"))),\n}},\n\
         ::serde::Value::Map(entries) if entries.len() == 1 => {{\n\
         let (k, inner) = &entries[0];\n\
         match k.as_str() {{\n{map_arms}\
         other => ::std::result::Result::Err(::serde::Error::custom(\
         format!(\"unknown variant `{{other}}` of enum {name}, expected one of {known}\"))),\n}}\n}},\n\
         other => ::std::result::Result::Err(::serde::Error::custom(\
         format!(\"expected string or single-key map for enum {name}, found {{}}\", other.kind()))),\n}}"
    )
}

// ------------------------------------------------------------------ Snap

const SNAP: &str = "::horse_types::snap";

/// `Snap::snap(<expr>, w);` for each field, skipped ones left out.
fn snap_fields(exprs: impl Iterator<Item = (String, bool)>) -> String {
    exprs
        .filter(|(_, skip)| !skip)
        .map(|(e, _)| format!("{SNAP}::Snap::snap({e}, w);\n"))
        .collect()
}

/// `{ a: Snap::unsnap(r)?, b: Default::default(), }` in declaration
/// order (struct literals evaluate their fields as written).
fn unsnap_named(path: &str, fields: &[Field]) -> String {
    let inits: String = fields
        .iter()
        .map(|f| match f.skip {
            true => format!("{}: ::std::default::Default::default(),\n", f.name),
            false => format!("{}: {SNAP}::Snap::unsnap(r)?,\n", f.name),
        })
        .collect();
    format!("{path} {{\n{inits}}}")
}

fn unsnap_tuple(path: &str, n: usize) -> String {
    let items = vec![format!("{SNAP}::Snap::unsnap(r)?"); n];
    format!("{path}({})", items.join(", "))
}

fn gen_snap(c: &Container) -> Result<String, String> {
    let name = &c.name;
    let (snap, unsnap) = match &c.data {
        Data::NamedStruct(fields) => (
            snap_fields(fields.iter().map(|f| (format!("&self.{}", f.name), f.skip))),
            unsnap_named(name, fields),
        ),
        Data::TupleStruct(n) => (
            snap_fields((0..*n).map(|i| (format!("&self.{i}"), false))),
            unsnap_tuple(name, *n),
        ),
        Data::UnitStruct => (String::new(), name.clone()),
        Data::Enum(variants) => {
            if variants.len() > 256 {
                return Err(format!(
                    "Snap: enum `{name}` has {} variants; a u8 tag holds 256",
                    variants.len()
                ));
            }
            let (mut snap_arms, mut unsnap_arms) = (String::new(), String::new());
            for (tag, v) in variants.iter().enumerate() {
                let path = format!("{name}::{}", v.name);
                let (pat, fields, build) = match &v.kind {
                    VariantKind::Unit => (path.clone(), String::new(), path),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        (
                            format!("{path}({})", binds.join(", ")),
                            snap_fields(binds.into_iter().map(|b| (b, false))),
                            unsnap_tuple(&path, *n),
                        )
                    }
                    VariantKind::Named(fields) => {
                        let binds = fields.iter().filter(|f| !f.skip).map(|f| &f.name);
                        (
                            format!(
                                "{path} {{ {} .. }}",
                                binds.clone().map(|b| format!("{b}, ")).collect::<String>()
                            ),
                            snap_fields(binds.map(|b| (b.clone(), false))),
                            unsnap_named(&path, fields),
                        )
                    }
                };
                snap_arms.push_str(&format!("{pat} => {{\nw.u8({tag});\n{fields}}}\n"));
                unsnap_arms.push_str(&format!("{tag} => {build},\n"));
            }
            (
                format!("match self {{\n{snap_arms}}}"),
                format!(
                    "{{\nlet at = r.position();\n\
                     match r.u8()? {{\n{unsnap_arms}\
                     t => return ::std::result::Result::Err({SNAP}::SnapError::new(\
                     ::std::format!(\"bad {name} tag {{t}}\"), at)),\n}}\n}}"
                ),
            )
        }
    };
    Ok(format!(
        "#[automatically_derived]\n\
         #[allow(unused_variables)]\n\
         impl {SNAP}::Snap for {name} {{\n\
         fn snap(&self, w: &mut {SNAP}::SnapWriter) {{\n{snap}}}\n\
         fn unsnap(r: &mut {SNAP}::SnapReader) -> \
         ::std::result::Result<Self, {SNAP}::SnapError> {{\n\
         ::std::result::Result::Ok({unsnap})\n}}\n}}\n"
    ))
}
