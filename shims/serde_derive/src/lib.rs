//! Derive macros for the offline `serde` shim.
//!
//! Implemented without `syn`/`quote` (unavailable offline): the item's
//! token stream is walked by hand and the generated impl is assembled as a
//! string. Supports the three shapes this workspace derives on — structs
//! with named fields, tuple structs, and enums with unit variants — and
//! fails with a `compile_error!` on anything else (generics, data-carrying
//! enum variants) so unsupported usage is loud, not silently wrong.
//!
//! `Serialize` impls write JSON text field by field through
//! `serde::Writer`: a named struct as an object, a one-field tuple struct
//! as its field, a wider tuple struct as an array and a unit variant as
//! its name. `Deserialize` impls read the same shapes back from a parsed
//! `serde::Value`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Shape {
    /// Struct with named fields.
    Named(String, Vec<String>),
    /// Tuple struct with N fields.
    Tuple(String, usize),
    /// Enum whose variants all carry no data.
    UnitEnum(String, Vec<String>),
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Skips leading `#[...]` attributes (including doc comments) starting at
/// `i`; returns the next index.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            _ => break,
        }
    }
    i
}

/// Skips `pub` / `pub(...)` starting at `i`; returns the next index.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if let Some(TokenTree::Ident(id)) = tokens.get(i) {
        if id.to_string() == "pub" {
            i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

/// Parses the names of a brace-delimited named-field list.
fn named_fields(group: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_vis(&tokens, skip_attrs(&tokens, i));
        let TokenTree::Ident(name) = &tokens[i] else {
            return Err(format!("expected field name, got {:?}", tokens[i]));
        };
        fields.push(name.to_string());
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:`, got {other:?}")),
        }
        // Skip the type: advance to the comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
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

/// Counts top-level fields of a paren-delimited tuple-field list.
fn tuple_arity(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut arity = 1;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            // A trailing comma adds no field.
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 && idx + 1 < tokens.len() => {
                arity += 1
            }
            _ => {}
        }
    }
    arity
}

/// Parses variant names of an all-unit enum.
fn unit_variants(group: &proc_macro::Group) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs(&tokens, i);
        let TokenTree::Ident(name) = &tokens[i] else {
            return Err(format!("expected variant name, got {:?}", tokens[i]));
        };
        variants.push(name.to_string());
        i += 1;
        match tokens.get(i) {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "variant `{name}` carries data; the serde shim derives only unit enums"
                ))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Discriminant: skip the expression up to the comma.
                while i < tokens.len() {
                    if let TokenTree::Punct(p) = &tokens[i] {
                        if p.as_char() == ',' {
                            break;
                        }
                    }
                    i += 1;
                }
                i += 1;
            }
            Some(other) => return Err(format!("unexpected token {other:?}")),
        }
    }
    Ok(variants)
}

fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_vis(&tokens, skip_attrs(&tokens, 0));
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let TokenTree::Ident(name) = &tokens[i] else {
        return Err("expected type name".to_string());
    };
    let name = name.to_string();
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "`{name}` is generic; the serde shim derives only concrete types"
            ));
        }
    }
    match (&kind[..], tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Shape::Named(name, named_fields(g)?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Shape::Tuple(name, tuple_arity(g)))
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Shape::UnitEnum(name, unit_variants(g)?))
        }
        _ => Err(format!("unsupported `{kind}` item shape")),
    }
}

/// Statements that open an array or object (`open` is `array` or
/// `object`) on the writer `w`, run `writes` (one statement per element
/// or field, on the open compound `c`) and close it.
fn compound(open: &str, writes: &[String]) -> String {
    if writes.is_empty() {
        return format!("w.{open}().end();");
    }
    format!("let mut c = w.{open}();\n{}\nc.end();", writes.join("\n"))
}

/// Derives the shim's `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let (name, body) = match &shape {
        Shape::Named(name, fields) => {
            let writes: Vec<String> = fields
                .iter()
                .map(|f| format!("c.field({f:?}, &self.{f});"))
                .collect();
            (name, compound("object", &writes))
        }
        Shape::Tuple(name, 1) => (name, "serde::Serialize::serialize(&self.0, w);".to_string()),
        Shape::Tuple(name, n) => {
            let writes: Vec<String> = (0..*n).map(|i| format!("c.element(&self.{i});")).collect();
            (name, compound("array", &writes))
        }
        Shape::UnitEnum(name, variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?}"))
                .collect();
            (
                name,
                format!("w.str(match self {{ {} }});", arms.join(", ")),
            )
        }
    };
    format!(
        "impl serde::Serialize for {name} {{\n\
             fn serialize(&self, w: &mut serde::Writer<'_>) {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .unwrap()
}

/// Derives the shim's `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_shape(input) {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let body = match &shape {
        Shape::Named(name, fields) => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: serde::field(v, {f:?})?"))
                .collect();
            format!(
                "impl serde::Deserialize for {name} {{\n\
                     fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {{\n\
                         Ok({name} {{ {} }})\n\
                     }}\n\
                 }}",
                inits.join(", ")
            )
        }
        Shape::Tuple(name, 1) => format!(
            "impl serde::Deserialize for {name} {{\n\
                 fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {{\n\
                     Ok({name}(serde::Deserialize::from_value(v)?))\n\
                 }}\n\
             }}"
        ),
        Shape::Tuple(name, n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "impl serde::Deserialize for {name} {{\n\
                     fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {{\n\
                         match v {{\n\
                             serde::Value::Array(items) if items.len() == {n} =>\n\
                                 Ok({name}({})),\n\
                             _ => Err(serde::DeError::msg(\n\
                                 concat!(\"expected \", {n}, \"-element array\"))),\n\
                         }}\n\
                     }}\n\
                 }}",
                items.join(", ")
            )
        }
        Shape::UnitEnum(name, variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| format!("{v:?} => Ok({name}::{v})"))
                .collect();
            format!(
                "impl serde::Deserialize for {name} {{\n\
                     fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {{\n\
                         match v {{\n\
                             serde::Value::Str(s) => match s.as_str() {{\n\
                                 {},\n\
                                 other => Err(serde::DeError::msg(\n\
                                     format!(\"unknown variant `{{other}}`\"))),\n\
                             }},\n\
                             _ => Err(serde::DeError::msg(\"expected variant string\")),\n\
                         }}\n\
                     }}\n\
                 }}",
                arms.join(",\n")
            )
        }
    };
    body.parse().unwrap()
}
