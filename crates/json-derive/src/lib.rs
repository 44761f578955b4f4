//! `#[derive(ToJson)]` and `#[derive(FromJson)]` for `moe-json`.
//!
//! Implemented directly on `proc_macro::TokenStream` — no `syn`/`quote` —
//! so the workspace stays free of external dependencies. The supported
//! shapes are exactly what the benchmark report types need:
//!
//! * structs with named fields → JSON objects in declaration order;
//! * enums with unit variants → the variant name as a JSON string;
//! * enum tuple variants `V(T)` → `{"V": <T>}` (n-tuples: `{"V": [..]}`);
//! * enum struct variants `V { a, b }` → `{"V": {"a": .., "b": ..}}`.
//!
//! This matches serde's externally-tagged representation, so reports
//! produced by earlier revisions parse unchanged. Generics are rejected
//! with a compile error (no serialized workspace type is generic).

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `moe_json::ToJson`.
#[proc_macro_derive(ToJson)]
// lint:allow(dead-pub) -- proc-macro entry point, invoked by `#[derive(ToJson)]`
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    expand(input, Mode::To)
}

/// Derive `moe_json::FromJson`.
#[proc_macro_derive(FromJson)]
// lint:allow(dead-pub) -- proc-macro entry point, invoked by `#[derive(FromJson)]`
pub fn derive_from_json(input: TokenStream) -> TokenStream {
    expand(input, Mode::From)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    To,
    From,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => match mode {
            Mode::To => gen_to_json(&item),
            Mode::From => gen_from_json(&item),
        },
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    match code.parse() {
        Ok(ts) => ts,
        Err(_) => "compile_error!(\"moe-json-derive: generated invalid code\");"
            .parse()
            .unwrap_or_default(),
    }
}

enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

/// Parse the derive input down to the names we need for codegen. Types are
/// never inspected: the generated code lets inference pick the right
/// `ToJson`/`FromJson` impl per field.
fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => "struct",
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => "enum",
        _ => return Err("expected struct or enum".to_string()),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected type name".to_string()),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "moe-json-derive: generic type `{name}` is not supported"
        ));
    }
    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            return Err(format!(
                "moe-json-derive: tuple struct `{name}` is not supported"
            ));
        }
        _ => return Err(format!("expected braced body for `{name}`")),
    };
    if kind == "struct" {
        Ok(Item::Struct {
            name,
            fields: parse_named_fields(body)?,
        })
    } else {
        Ok(Item::Enum {
            name,
            variants: parse_variants(body)?,
        })
    }
}

/// Skip leading `#[...]` attributes (doc comments included) and a `pub` /
/// `pub(...)` visibility qualifier.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // '#'
                if matches!(tokens.get(*i), Some(TokenTree::Group(_))) {
                    *i += 1; // '[...]'
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // '(crate)' etc.
                }
            }
            _ => return,
        }
    }
}

/// Parse `name: Type, ...` — returns field names in declaration order.
/// Commas inside angle brackets (`Vec<Vec<String>>`) do not split fields.
fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => return Err("expected field name".to_string()),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected ':' after field `{name}`")),
        }
        fields.push(name);
        // Skip the type: everything to the next comma at angle depth 0.
        let mut angle: i32 = 0;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    Ok(fields)
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => return Err("expected variant name".to_string()),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                i += 1;
                Shape::Struct(fields)
            }
            _ => Shape::Unit,
        };
        // Skip an explicit discriminant (`= expr`) and the trailing comma.
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

/// Count top-level comma-separated entries of a tuple variant's parens.
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut n = 1;
    let mut angle: i32 = 0;
    let mut saw_trailing_comma = false;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                if idx + 1 == tokens.len() {
                    saw_trailing_comma = true;
                } else {
                    n += 1;
                }
            }
            _ => {}
        }
    }
    let _ = saw_trailing_comma;
    n
}

fn gen_to_json(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let mut pushes = String::new();
            for f in fields {
                pushes.push_str(&format!(
                    "obj.push((::std::string::String::from({f:?}), \
                     moe_json::ToJson::to_json(&self.{f})));\n"
                ));
            }
            format!(
                "impl moe_json::ToJson for {name} {{\n\
                 fn to_json(&self) -> moe_json::Json {{\n\
                 let mut obj: ::std::vec::Vec<(::std::string::String, moe_json::Json)> = \
                 ::std::vec::Vec::new();\n\
                 {pushes}\
                 moe_json::Json::Obj(obj)\n}}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => moe_json::Json::Str(::std::string::String::from({vn:?})),\n"
                    )),
                    Shape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(x0) => moe_json::Json::Obj(vec![(\
                         ::std::string::String::from({vn:?}), moe_json::ToJson::to_json(x0))]),\n"
                    )),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("x{k}")).collect();
                        let elems: Vec<String> = binds
                            .iter()
                            .map(|b| format!("moe_json::ToJson::to_json({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => moe_json::Json::Obj(vec![(\
                             ::std::string::String::from({vn:?}), \
                             moe_json::Json::Arr(vec![{}]))]),\n",
                            binds.join(", "),
                            elems.join(", ")
                        ));
                    }
                    Shape::Struct(fields) => {
                        let binds = fields.join(", ");
                        let pairs: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from({f:?}), \
                                     moe_json::ToJson::to_json({f}))"
                                )
                            })
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => moe_json::Json::Obj(vec![(\
                             ::std::string::String::from({vn:?}), \
                             moe_json::Json::Obj(vec![{}]))]),\n",
                            pairs.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl moe_json::ToJson for {name} {{\n\
                 fn to_json(&self) -> moe_json::Json {{\n\
                 match self {{\n{arms}}}\n}}\n}}\n"
            )
        }
    }
}

fn gen_from_json(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!("{f}: moe_json::field(v, {f:?})?,\n"));
            }
            format!(
                "impl moe_json::FromJson for {name} {{\n\
                 fn from_json(v: &moe_json::Json) -> ::std::result::Result<Self, moe_json::Error> {{\n\
                 ::std::result::Result::Ok(Self {{\n{inits}}})\n}}\n}}\n"
            )
        }
        Item::Enum { name, variants } => {
            let mut str_arms = String::new();
            let mut tag_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => str_arms.push_str(&format!(
                        "{vn:?} => ::std::result::Result::Ok({name}::{vn}),\n"
                    )),
                    Shape::Tuple(1) => tag_arms.push_str(&format!(
                        "{vn:?} => ::std::result::Result::Ok({name}::{vn}(\
                         moe_json::FromJson::from_json(inner)?)),\n"
                    )),
                    Shape::Tuple(n) => {
                        let elems: Vec<String> = (0..*n)
                            .map(|k| {
                                format!(
                                    "moe_json::FromJson::from_json(\
                                     inner.at({k}).ok_or_else(|| moe_json::Error::new(\
                                     \"missing tuple element\"))?)?"
                                )
                            })
                            .collect();
                        tag_arms.push_str(&format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn}({})),\n",
                            elems.join(", ")
                        ));
                    }
                    Shape::Struct(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| format!("{f}: moe_json::field(inner, {f:?})?"))
                            .collect();
                        tag_arms.push_str(&format!(
                            "{vn:?} => ::std::result::Result::Ok({name}::{vn} {{ {} }}),\n",
                            inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "impl moe_json::FromJson for {name} {{\n\
                 fn from_json(v: &moe_json::Json) -> ::std::result::Result<Self, moe_json::Error> {{\n\
                 match v {{\n\
                 moe_json::Json::Str(s) => match s.as_str() {{\n\
                 {str_arms}\
                 other => ::std::result::Result::Err(moe_json::Error::new(format!(\
                 \"unknown {name} variant '{{other}}'\"))),\n\
                 }},\n\
                 moe_json::Json::Obj(pairs) if pairs.len() == 1 => {{\n\
                 let (tag, inner) = &pairs[0];\n\
                 let _ = inner;\n\
                 match tag.as_str() {{\n\
                 {tag_arms}\
                 other => ::std::result::Result::Err(moe_json::Error::new(format!(\
                 \"unknown {name} variant '{{other}}'\"))),\n\
                 }}\n\
                 }},\n\
                 other => ::std::result::Result::Err(moe_json::Error::new(format!(\
                 \"expected {name} variant, got {{}}\", other.kind()))),\n\
                 }}\n}}\n}}\n"
            )
        }
    }
}
