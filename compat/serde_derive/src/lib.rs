//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! The macros parse the item's token stream directly (no `syn`/`quote` —
//! the build environment is offline) and emit `serde::Serialize::serialize`,
//! which describes the value to a `serde::Serializer` call by call, and
//! `serde::Deserialize::from_value`, which reads a `serde::Value` tree.
//! Supported shapes are exactly what this workspace derives on:
//!
//! * named-field structs, tuple structs (newtype included), unit structs;
//! * enums with unit, newtype, tuple and struct variants;
//! * no generic parameters.
//!
//! JSON mapping: named struct → object; newtype struct → transparent
//! inner value; tuple struct → array; unit variant → its name as a
//! string; data variant → one-entry object `{"Name": payload}`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field: named (`Some(name)`) or positional (`None`).
struct Field {
    name: Option<String>,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Item {
    Struct {
        name: String,
        shape: Shape,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Skips attributes (`#[...]`) and visibility (`pub`, `pub(...)`) at the
/// cursor position.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then `[...]`.
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Splits a field-list token sequence on top-level commas, tracking both
/// group nesting (automatic — groups are single tokens) and angle-bracket
/// depth (manual — `<`/`>` are plain puncts).
fn split_top_level_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Parses one field declaration (attrs/vis stripped by the caller's
/// splitter — we strip again here to be safe).
fn parse_field(tokens: &[TokenTree]) -> Field {
    let i = skip_attrs_and_vis(tokens, 0);
    // Named field iff `ident :` follows.
    if let (Some(TokenTree::Ident(id)), Some(TokenTree::Punct(p))) =
        (tokens.get(i), tokens.get(i + 1))
    {
        if p.as_char() == ':' {
            return Field {
                name: Some(id.to_string()),
            };
        }
    }
    Field { name: None }
}

fn parse_fields_group(group: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    split_top_level_commas(&tokens)
        .iter()
        .map(|f| parse_field(f))
        .collect()
}

fn shape_of(fields: &[Field]) -> Shape {
    if fields.is_empty() {
        Shape::Unit
    } else if fields[0].name.is_some() {
        Shape::Named(
            fields
                .iter()
                .map(|f| f.name.clone().expect("mixed named/positional fields"))
                .collect(),
        )
    } else {
        Shape::Tuple(fields.len())
    }
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected `struct` or `enum`, found {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected item name, found {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("derive({name}): generic types are not supported by the offline serde shim");
        }
    }
    match kind.as_str() {
        "struct" => {
            let shape = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    shape_of(&parse_fields_group(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    match shape_of(&parse_fields_group(g)) {
                        Shape::Unit => Shape::Tuple(0),
                        s => s,
                    }
                }
                _ => Shape::Unit,
            };
            Item::Struct { name, shape }
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
                other => panic!("derive({name}): expected enum body, found {other:?}"),
            };
            let body_tokens: Vec<TokenTree> = body.stream().into_iter().collect();
            let mut variants = Vec::new();
            let mut j = 0;
            while j < body_tokens.len() {
                j = skip_attrs_and_vis(&body_tokens, j);
                let vname = match body_tokens.get(j) {
                    Some(TokenTree::Ident(id)) => id.to_string(),
                    None => break,
                    other => panic!("derive({name}): expected variant, found {other:?}"),
                };
                j += 1;
                let shape = match body_tokens.get(j) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        j += 1;
                        shape_of(&parse_fields_group(g))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        j += 1;
                        match shape_of(&parse_fields_group(g)) {
                            Shape::Unit => Shape::Tuple(0),
                            s => s,
                        }
                    }
                    _ => Shape::Unit,
                };
                // Skip optional `, `.
                if let Some(TokenTree::Punct(p)) = body_tokens.get(j) {
                    if p.as_char() == ',' {
                        j += 1;
                    }
                }
                variants.push(Variant { name: vname, shape });
            }
            Item::Enum { name, variants }
        }
        other => panic!("derive: unsupported item kind `{other}`"),
    }
}

// ---- code generation (as source strings, parsed back into tokens) ----------

// The generated `serialize` names its serializer `__s` and that type
// `__S`, so that neither shadows nor is shadowed by a field binding or a
// type of the deriving crate.

/// Statements serializing `value` (an expression of reference type).
fn ser(value: &str) -> String {
    format!("::serde::Serialize::serialize({value}, __s);")
}

/// Statements serializing `items` as an array.
fn array_ser_body(items: &[String]) -> String {
    let elems: String = items
        .iter()
        .map(|v| format!("__s.element(); {}", ser(v)))
        .collect();
    format!("__s.begin_array(); {elems} __s.end_array();")
}

/// Statements serializing the named fields as an object.
fn named_ser_body(fields: &[String], access: impl Fn(&str) -> String) -> String {
    let entries: String = fields
        .iter()
        .map(|f| format!("__s.key(\"{f}\"); {}", ser(&access(f))))
        .collect();
    format!("__s.begin_object(); {entries} __s.end_object();")
}

/// Statements serializing a data variant as `{"Name": payload}`.
fn variant_ser_body(vn: &str, payload: &str) -> String {
    format!("__s.begin_object(); __s.key(\"{vn}\"); {payload} __s.end_object();")
}

fn named_de_body(ty_path: &str, ty_label: &str, fields: &[String], src: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "{f}: ::serde::Deserialize::from_value(::serde::obj_field({src}, \"{ty_label}\", \"{f}\")?)?,"
            )
        })
        .collect();
    format!("{ty_path} {{ {} }}", inits.join(""))
}

fn derive_impls(item: &Item, gen_ser: bool, gen_de: bool) -> String {
    let mut out = String::new();
    match item {
        Item::Struct { name, shape } => {
            let (ser_body, de_body) = match shape {
                Shape::Unit => (
                    "__s.null();".to_string(),
                    format!("::std::result::Result::Ok({name})"),
                ),
                Shape::Tuple(1) => (
                    ser("&self.0"),
                    format!(
                        "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))"
                    ),
                ),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
                    let inits: Vec<String> = (0..*n)
                        .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                        .collect();
                    (
                        array_ser_body(&items),
                        format!(
                            "{{ let items = ::serde::tuple_items(v, \"{name}\", {n})?; \
                             ::std::result::Result::Ok({name}({})) }}",
                            inits.join("")
                        ),
                    )
                }
                Shape::Named(fields) => (
                    named_ser_body(fields, |f| format!("&self.{f}")),
                    format!(
                        "::std::result::Result::Ok({})",
                        named_de_body(name, name, fields, "v")
                    ),
                ),
            };
            if gen_ser {
                out.push_str(&format!(
                    "impl ::serde::Serialize for {name} {{ \
                     fn serialize<__S: ::serde::Serializer>(&self, __s: &mut __S) {{ {ser_body} }} }}"
                ));
            }
            if gen_de {
                out.push_str(&format!(
                    "impl ::serde::Deserialize for {name} {{ \
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ {de_body} }} }}"
                ));
            }
        }
        Item::Enum { name, variants } => {
            // Serialize: match on self.
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!("{name}::{vn} => __s.str(\"{vn}\"),")),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let payload = if *n == 1 {
                            ser("f0")
                        } else {
                            array_ser_body(&binds)
                        };
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => {{ {} }},",
                            binds.join(","),
                            variant_ser_body(vn, &payload)
                        ));
                    }
                    Shape::Named(fields) => {
                        let binds = fields.join(",");
                        let payload = named_ser_body(fields, |f| f.to_string());
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{ {} }},",
                            variant_ser_body(vn, &payload)
                        ));
                    }
                }
            }
            if gen_ser {
                out.push_str(&format!(
                    "impl ::serde::Serialize for {name} {{ \
                     fn serialize<__S: ::serde::Serializer>(&self, __s: &mut __S) {{ match self {{ {arms} }} }} }}"
                ));
            }

            // Deserialize: strings name unit variants; one-entry objects
            // name data variants.
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let path = format!("{name}::{vn}");
                match &v.shape {
                    Shape::Unit => unit_arms
                        .push_str(&format!("\"{vn}\" => ::std::result::Result::Ok({path}),")),
                    Shape::Tuple(1) => data_arms.push_str(&format!(
                        "\"{vn}\" => ::std::result::Result::Ok({path}(\
                         ::serde::Deserialize::from_value(payload)?)),"
                    )),
                    Shape::Tuple(n) => {
                        let inits: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{ let items = ::serde::tuple_items(payload, \"{name}::{vn}\", {n})?; \
                             ::std::result::Result::Ok({path}({})) }},",
                            inits.join("")
                        ));
                    }
                    Shape::Named(fields) => {
                        let body =
                            named_de_body(&path, &format!("{name}::{vn}"), fields, "payload");
                        data_arms
                            .push_str(&format!("\"{vn}\" => ::std::result::Result::Ok({body}),"));
                    }
                }
            }
            if gen_de {
                out.push_str(&format!(
                    "impl ::serde::Deserialize for {name} {{ \
                     fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{ \
                       match v {{ \
                         ::serde::Value::Str(s) => match s.as_str() {{ \
                           {unit_arms} \
                           other => ::std::result::Result::Err(::serde::Error::custom(\
                             ::std::format!(\"unknown {name} variant `{{other}}`\"))), \
                         }}, \
                         ::serde::Value::Object(pairs) if pairs.len() == 1 => {{ \
                           let (tag, payload) = (&pairs[0].0, &pairs[0].1); \
                           let _ = payload; \
                           match tag.as_str() {{ \
                             {data_arms} \
                             other => ::std::result::Result::Err(::serde::Error::custom(\
                               ::std::format!(\"unknown {name} variant `{{other}}`\"))), \
                           }} \
                         }}, \
                         _ => ::std::result::Result::Err(::serde::Error::custom(\
                           \"expected string or single-entry object for {name}\")), \
                       }} \
                     }} }}"
                ));
            }
        }
    }
    out
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    derive_impls(&item, true, false)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize`, which reads a `serde::Value` tree.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    derive_impls(&item, false, true)
        .parse()
        .expect("generated Deserialize impl parses")
}
