//! Offline stand-in for `serde_derive`.
//!
//! Derives the mini-serde `Serialize` / `Deserialize` traits (see the compat
//! `serde` crate) by hand-parsing the item's token stream — no `syn`/`quote`,
//! so the crate builds with no dependencies at all. Supported shapes are
//! exactly what this workspace uses: non-generic named structs, tuple structs
//! (including `#[serde(transparent)]` newtypes with private fields), unit
//! structs, and enums whose variants are unit, tuple, or named-field.
//! A named struct field marked `#[serde(skip)]` is left out of the
//! serialized form and deserializes as `Default::default()`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Ser)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::De)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Ser,
    De,
}

struct Item {
    name: String,
    kind: Kind,
}

enum Kind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    skip: bool,
}

struct Variant {
    name: String,
    fields: VFields,
}

enum VFields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return format!("::core::compile_error!({msg:?});").parse().unwrap(),
    };
    let code = match mode {
        Mode::Ser => gen_serialize(&item),
        Mode::De => gen_deserialize(&item),
    };
    code.parse().unwrap()
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes and visibility.
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // '#' + bracket group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1; // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }

    let is_enum = match toks.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => false,
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => true,
        other => return Err(format!("derive: expected struct/enum, got {other:?}")),
    };
    i += 1;

    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("derive: expected item name, got {other:?}")),
    };
    i += 1;

    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            return Err(format!("derive: generic type {name} is not supported"));
        }
    }

    if is_enum {
        let body = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => return Err(format!("derive: expected enum body, got {other:?}")),
        };
        let mut variants = Vec::new();
        for chunk in split_top_level(body) {
            if let Some(v) = parse_variant(&chunk)? {
                variants.push(v);
            }
        }
        return Ok(Item {
            name,
            kind: Kind::Enum(variants),
        });
    }

    match toks.get(i) {
        None => Ok(Item {
            name,
            kind: Kind::Unit,
        }),
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(Item {
            name,
            kind: Kind::Unit,
        }),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields = parse_named_fields(g.stream())?;
            Ok(Item {
                name,
                kind: Kind::Named(fields),
            })
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let n = split_top_level(g.stream())
                .into_iter()
                .filter(|c| !c.is_empty())
                .count();
            Ok(Item {
                name,
                kind: Kind::Tuple(n),
            })
        }
        other => Err(format!("derive: unexpected struct body {other:?}")),
    }
}

fn parse_variant(chunk: &[TokenTree]) -> Result<Option<Variant>, String> {
    let mut i = 0;
    while let Some(TokenTree::Punct(p)) = chunk.get(i) {
        if p.as_char() == '#' {
            i += 2;
        } else {
            break;
        }
    }
    let name = match chunk.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        None => return Ok(None), // trailing comma
        other => return Err(format!("derive: expected variant name, got {other:?}")),
    };
    i += 1;
    let fields = match chunk.get(i) {
        None => VFields::Unit,
        Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
            return Err(format!(
                "derive: explicit discriminant on variant {name} is not supported"
            ))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields = parse_named_fields(g.stream())?;
            if fields.iter().any(|f| f.skip) {
                return Err(format!(
                    "derive: #[serde(skip)] on a field of variant {name} is not supported"
                ));
            }
            VFields::Named(fields.into_iter().map(|f| f.name).collect())
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let n = split_top_level(g.stream())
                .into_iter()
                .filter(|c| !c.is_empty())
                .count();
            VFields::Tuple(n)
        }
        other => return Err(format!("derive: unexpected variant body {other:?}")),
    };
    Ok(Some(Variant { name, fields }))
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for chunk in split_top_level(body) {
        let mut i = 0;
        let mut skip = false;
        loop {
            match chunk.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    skip |= chunk.get(i + 1).is_some_and(is_serde_skip);
                    i += 2; // '#' + bracket group
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if let Some(TokenTree::Group(g)) = chunk.get(i) {
                        if g.delimiter() == Delimiter::Parenthesis {
                            i += 1;
                        }
                    }
                }
                _ => break,
            }
        }
        match chunk.get(i) {
            Some(TokenTree::Ident(id)) => fields.push(Field {
                name: id.to_string(),
                skip,
            }),
            None => {} // trailing comma
            other => return Err(format!("derive: expected field name, got {other:?}")),
        }
    }
    Ok(fields)
}

/// Whether an attribute's bracket group is exactly `[serde(skip)]`.
fn is_serde_skip(attr: &TokenTree) -> bool {
    let TokenTree::Group(g) = attr else {
        return false;
    };
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    matches!(
        toks.as_slice(),
        [TokenTree::Ident(id), TokenTree::Group(args)]
            if id.to_string() == "serde" && args.stream().to_string() == "skip"
    )
}

/// Split a token stream on top-level commas (commas inside `<...>` generic
/// argument lists and inside delimited groups don't count).
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut chunks = vec![Vec::new()];
    let mut angle_depth: i32 = 0;
    for tok in stream {
        match &tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                chunks.push(Vec::new());
                continue;
            }
            _ => {}
        }
        chunks.last_mut().unwrap().push(tok);
    }
    chunks
}

// ---------------------------------------------------------------------------
// Codegen
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Unit => "::serde::Value::Null".to_string(),
        Kind::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Serialize::to_value(&self.{k})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Kind::Named(fields) => {
            let pushes: Vec<String> = fields
                .iter()
                .filter(|f| !f.skip)
                .map(|Field { name: f, .. }| {
                    format!(
                        "(::std::string::String::from({f:?}), ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", pushes.join(", "))
        }
        Kind::Enum(variants) => {
            let mut arms = Vec::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    VFields::Unit => arms.push(format!(
                        "{name}::{vname} => ::serde::Value::Str(::std::string::String::from({vname:?})),"
                    )),
                    VFields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        let payload = if *n == 1 {
                            "::serde::Serialize::to_value(__f0)".to_string()
                        } else {
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_value({b})"))
                                .collect();
                            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
                        };
                        arms.push(format!(
                            "{name}::{vname}({}) => ::serde::Value::Object(vec![(::std::string::String::from({vname:?}), {payload})]),",
                            binds.join(", ")
                        ));
                    }
                    VFields::Named(fields) => {
                        let pushes: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "(::std::string::String::from({f:?}), ::serde::Serialize::to_value({f}))"
                                )
                            })
                            .collect();
                        arms.push(format!(
                            "{name}::{vname} {{ {} }} => ::serde::Value::Object(vec![(::std::string::String::from({vname:?}), ::serde::Value::Object(vec![{}]))]),",
                            fields.join(", "),
                            pushes.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
             fn to_value(&self) -> ::serde::Value {{ {body} }} \
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Unit => format!("::std::result::Result::Ok({name})"),
        Kind::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Kind::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|k| format!("::serde::Deserialize::from_value(&__arr[{k}])?"))
                .collect();
            format!(
                "let __arr = __v.as_array().ok_or_else(|| ::serde::DeError::new(\"expected array for {name}\"))?; \
                 if __arr.len() != {n} {{ return ::std::result::Result::Err(::serde::DeError::new(\"wrong tuple arity for {name}\")); }} \
                 ::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            )
        }
        Kind::Named(fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|Field { name: f, skip }| {
                    if *skip {
                        format!("{f}: ::std::default::Default::default()")
                    } else {
                        format!(
                            "{f}: ::serde::Deserialize::from_value(::serde::object_get(__obj, {f:?}).ok_or_else(|| ::serde::DeError::new(\"missing field {name}.{f}\"))?)?"
                        )
                    }
                })
                .collect();
            format!(
                "let __obj = __v.as_object().ok_or_else(|| ::serde::DeError::new(\"expected object for {name}\"))?; \
                 ::std::result::Result::Ok({name} {{ {} }})",
                inits.join(", ")
            )
        }
        Kind::Enum(variants) => {
            let mut unit_arms = Vec::new();
            let mut payload_arms = Vec::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    VFields::Unit => {
                        unit_arms.push(format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname}),"
                        ));
                        payload_arms.push(format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname}),"
                        ));
                    }
                    VFields::Tuple(n) => {
                        let ctor = if *n == 1 {
                            format!("{name}::{vname}(::serde::Deserialize::from_value(__payload)?)")
                        } else {
                            let elems: Vec<String> = (0..*n)
                                .map(|k| format!("::serde::Deserialize::from_value(&__arr[{k}])?"))
                                .collect();
                            format!(
                                "{{ let __arr = __payload.as_array().ok_or_else(|| ::serde::DeError::new(\"expected array for {name}::{vname}\"))?; \
                                 if __arr.len() != {n} {{ return ::std::result::Result::Err(::serde::DeError::new(\"wrong arity for {name}::{vname}\")); }} \
                                 {name}::{vname}({}) }}",
                                elems.join(", ")
                            )
                        };
                        payload_arms
                            .push(format!("{vname:?} => ::std::result::Result::Ok({ctor}),"));
                    }
                    VFields::Named(fields) => {
                        let inits: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                format!(
                                    "{f}: ::serde::Deserialize::from_value(::serde::object_get(__fields, {f:?}).ok_or_else(|| ::serde::DeError::new(\"missing field {name}::{vname}.{f}\"))?)?"
                                )
                            })
                            .collect();
                        payload_arms.push(format!(
                            "{vname:?} => {{ let __fields = __payload.as_object().ok_or_else(|| ::serde::DeError::new(\"expected object for {name}::{vname}\"))?; \
                             ::std::result::Result::Ok({name}::{vname} {{ {} }}) }}",
                            inits.join(", ")
                        ));
                    }
                }
            }
            format!(
                "match __v {{ \
                     ::serde::Value::Str(__s) => match __s.as_str() {{ \
                         {} \
                         __other => ::std::result::Result::Err(::serde::DeError::new(&format!(\"unknown variant {{__other}} for {name}\"))), \
                     }}, \
                     _ => {{ \
                         let __obj = __v.as_object().ok_or_else(|| ::serde::DeError::new(\"expected string or object for {name}\"))?; \
                         if __obj.len() != 1 {{ return ::std::result::Result::Err(::serde::DeError::new(\"expected single-key object for {name}\")); }} \
                         let (__tag, __payload) = (&__obj[0].0, &__obj[0].1); \
                         let _ = __payload; \
                         match __tag.as_str() {{ \
                             {} \
                             __other => ::std::result::Result::Err(::serde::DeError::new(&format!(\"unknown variant {{__other}} for {name}\"))), \
                         }} \
                     }} \
                 }}",
                unit_arms.join(" "),
                payload_arms.join(" ")
            )
        }
    };
    format!(
        "#[automatically_derived] impl ::serde::Deserialize for {name} {{ \
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }} \
         }}"
    )
}
