//! Item-level parsing: recover `fn` / `impl` / `mod` boundaries and
//! `#[cfg(test)]` scoping from the token forest instead of by brace
//! counting over masked lines.

use crate::tree::{is_ident, is_punct, render, Tree};

/// One parameter of a parsed function.
#[derive(Debug, Clone)]
pub struct Param {
    /// Pattern text before the `:` (`seed`, `mut n`, `( a , b )`).
    pub name: String,
    /// Rendered type text after the `:` (empty for `self` receivers).
    pub ty: String,
}

/// One `fn` item recovered from the forest (free function, inherent or
/// trait method — bodies of nested `mod` / `impl` blocks are walked too).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace (signature line when the
    /// item is a bodyless trait declaration).
    pub end_line: usize,
    /// Parsed parameter list.
    pub params: Vec<Param>,
    /// Rendered return type (empty when the function returns `()`).
    pub ret: String,
    /// Body forest (empty for bodyless declarations).
    pub body: Vec<Tree>,
    /// Whether the visibility is exactly `pub` (not `pub(crate)` or
    /// private).
    pub is_pub: bool,
    /// Whether the item sits under `#[cfg(test)]` (directly or via an
    /// enclosing module) — set by the caller for file-level test scope.
    pub in_test: bool,
}

/// Structural facts about one file's items.
#[derive(Debug, Default)]
pub struct Items {
    /// Every function in the file, in source order.
    pub fns: Vec<FnItem>,
    /// Inclusive 1-based line ranges covered by `#[cfg(test)]` items
    /// (the attribute line itself included, matching the legacy scoper).
    pub test_ranges: Vec<(usize, usize)>,
}

/// Parse the top-level forest of one file.
pub fn parse(trees: &[Tree]) -> Items {
    let mut items = Items::default();
    walk(trees, false, &mut items);
    items
}

/// Identifiers that may prefix an item before its defining keyword.
const QUALIFIERS: &[&str] = &["pub", "const", "async", "unsafe", "extern", "default"];

fn walk(seq: &[Tree], in_test: bool, out: &mut Items) {
    let mut i = 0usize;
    while i < seq.len() {
        // Collect attributes: `#[…]` / `#![…]`.
        let attr_start = i;
        let mut cfg_test = false;
        while i < seq.len() && is_punct(&seq[i], "#") {
            let mut j = i + 1;
            if j < seq.len() && is_punct(&seq[j], "!") {
                j += 1;
            }
            let Some(g) = seq.get(j).and_then(Tree::group) else {
                break;
            };
            if g.delim == '[' {
                cfg_test |= attr_is_cfg_test(&g.children);
                i = j + 1;
            } else {
                break;
            }
        }
        if i >= seq.len() {
            break;
        }
        // Find the item keyword, skipping qualifiers (incl. `pub(crate)`
        // visibility groups and `extern "C"` ABI strings).
        let mut k = i;
        while k < seq.len() {
            match &seq[k] {
                Tree::Leaf(t) if QUALIFIERS.contains(&t.text.as_str()) => k += 1,
                Tree::Leaf(t) if t.kind == crate::lexer::TokKind::Str => k += 1,
                Tree::Group(g) if g.delim == '(' && k > i => k += 1, // pub(crate)
                _ => break,
            }
        }
        let keyword = seq.get(k).and_then(Tree::leaf).map(|t| t.text.as_str());
        match keyword {
            Some("fn") => {
                let end = item_end(seq, k);
                let is_pub = is_plain_pub(&seq[i..k]);
                if let Some(f) = parse_fn(
                    &seq[k..=end.min(seq.len() - 1)],
                    in_test || cfg_test,
                    is_pub,
                ) {
                    let f_end = f.end_line;
                    out.fns.push(f);
                    if cfg_test && !in_test {
                        out.test_ranges.push((line_of(&seq[attr_start]), f_end));
                    }
                }
                i = end + 1;
            }
            Some("mod") | Some("impl") | Some("trait") => {
                let end = item_end(seq, k);
                if let Some(body) = seq[k..=end.min(seq.len() - 1)]
                    .iter()
                    .rev()
                    .find_map(|t| t.group().filter(|g| g.delim == '{'))
                {
                    walk(&body.children, in_test || cfg_test, out);
                }
                if cfg_test && !in_test {
                    out.test_ranges.push((
                        line_of(&seq[attr_start]),
                        seq[end.min(seq.len() - 1)].end_line(),
                    ));
                }
                i = end + 1;
            }
            _ => {
                let end = item_end(seq, k.min(seq.len() - 1));
                if cfg_test && !in_test {
                    out.test_ranges.push((
                        line_of(&seq[attr_start]),
                        seq[end.min(seq.len() - 1)].end_line(),
                    ));
                }
                i = end + 1;
            }
        }
    }
}

fn line_of(t: &Tree) -> usize {
    t.line()
}

/// Do an item's qualifiers carry exactly `pub` (not `pub(crate)` or
/// `pub(super)`)?
fn is_plain_pub(quals: &[Tree]) -> bool {
    quals.iter().enumerate().any(|(q, t)| {
        is_ident(t, "pub")
            && quals
                .get(q + 1)
                .and_then(Tree::group)
                .is_none_or(|g| g.delim != '(')
    })
}

/// Does an attribute group body spell exactly `cfg(test)`? Deliberately
/// exact: `cfg(not(test))` and feature gates are live code and must not
/// be treated as test scope.
fn attr_is_cfg_test(attr: &[Tree]) -> bool {
    let mut i = 0usize;
    while i < attr.len() {
        if is_ident(&attr[i], "cfg") {
            if let Some(g) = attr.get(i + 1).and_then(Tree::group) {
                if g.delim == '(' && g.children.len() == 1 && is_ident(&g.children[0], "test") {
                    return true;
                }
            }
        }
        i += 1;
    }
    false
}

/// Index (into `seq`) of the node that ends the item starting at `start`:
/// the first top-level `;`, or the first `{…}` group, whichever comes
/// first. Falls back to the last node.
fn item_end(seq: &[Tree], start: usize) -> usize {
    let mut i = start;
    while i < seq.len() {
        if is_punct(&seq[i], ";") {
            return i;
        }
        if seq[i].group().is_some_and(|g| g.delim == '{') {
            return i;
        }
        i += 1;
    }
    seq.len().saturating_sub(1)
}

/// Parse one `fn` item given the slice starting at the `fn` keyword and
/// ending at its terminating node.
fn parse_fn(seq: &[Tree], in_test: bool, is_pub: bool) -> Option<FnItem> {
    let fn_tok = seq.first()?.leaf()?;
    let name = seq.get(1)?.leaf()?.text.clone();
    // The parameter list is the first `(…)` group after the name
    // (generics like `<T: Into<u64>>` are leaves, never paren groups).
    let (pidx, pgroup) = seq
        .iter()
        .enumerate()
        .skip(2)
        .find_map(|(i, t)| t.group().filter(|g| g.delim == '(').map(|g| (i, g)))?;
    let params = parse_params(&pgroup.children);
    // Return type: tokens between the param group and the body / `;`,
    // minus the `->` arrow and any `where` clause.
    let mut ret = Vec::new();
    let mut body = Vec::new();
    let mut end_line = seq.last().map_or(fn_tok.line, Tree::end_line);
    let mut in_where = false;
    for t in &seq[pidx + 1..] {
        if let Some(g) = t.group() {
            if g.delim == '{' {
                body = g.children.clone();
                end_line = g.close_line;
                break;
            }
        }
        if is_punct(t, "->") {
            continue;
        }
        if is_ident(t, "where") {
            in_where = true;
        }
        if is_punct(t, ";") {
            break;
        }
        if !in_where {
            ret.push(t.clone());
        }
    }
    Some(FnItem {
        name,
        line: fn_tok.line,
        end_line,
        params,
        ret: render(&ret),
        body,
        is_pub,
        in_test,
    })
}

/// Split a parameter group's children on top-level commas into
/// `name: type` pairs.
fn parse_params(children: &[Tree]) -> Vec<Param> {
    let mut params = Vec::new();
    for chunk in split_commas(children) {
        if chunk.is_empty() {
            continue;
        }
        let colon = chunk.iter().position(|t| is_punct(t, ":"));
        match colon {
            Some(c) => params.push(Param {
                name: render(&chunk[..c]),
                ty: render(&chunk[c + 1..]),
            }),
            // Receivers: `self`, `&self`, `&mut self`.
            None => params.push(Param {
                name: render(&chunk),
                ty: String::new(),
            }),
        }
    }
    params
}

/// Split a forest slice on top-level `,` leaves.
fn split_commas(children: &[Tree]) -> Vec<Vec<Tree>> {
    let mut out = vec![Vec::new()];
    for t in children {
        if is_punct(t, ",") {
            out.push(Vec::new());
        } else if let Some(cur) = out.last_mut() {
            cur.push(t.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::build;

    fn items(src: &str) -> Items {
        parse(&build(&lex(src).tokens))
    }

    #[test]
    fn finds_free_fns_with_signatures() {
        let it = items("pub fn derive(seed: u64, label: u64) -> u64 { seed ^ label }\n");
        assert_eq!(it.fns.len(), 1);
        let f = &it.fns[0];
        assert_eq!(f.name, "derive");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "seed");
        assert_eq!(f.params[0].ty, "u64");
        assert_eq!(f.ret, "u64");
        assert!(f.is_pub);
        assert!(!f.in_test);
        assert!(!f.body.is_empty());
    }

    #[test]
    fn finds_methods_in_impl_and_mod() {
        let src = "impl S {\n fn a(&self) {}\n}\nmod m {\n pub fn b(x: f64) -> f64 { x }\n}\n";
        let it = items(src);
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!it.fns[0].is_pub && it.fns[1].is_pub);
        assert_eq!(it.fns[0].params[0].name, "& self");
        assert_eq!(it.fns[1].params[0].ty, "f64");
    }

    #[test]
    fn restricted_visibility_is_not_pub() {
        let it = items("pub(crate) fn a() {}\npub(super) fn b() {}\nfn c() {}\n");
        assert!(it.fns.iter().all(|f| !f.is_pub));
    }

    #[test]
    fn generics_and_where_clauses() {
        let src = "fn f<T: Into<u64>>(x: T) -> Vec<u64> where T: Copy { vec![] }\n";
        let it = items(src);
        let f = &it.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params[0].name, "x");
        assert_eq!(f.params[0].ty, "T");
        assert!(f.ret.contains("Vec"), "{}", f.ret);
        assert!(!f.ret.contains("Copy"), "{}", f.ret);
    }

    #[test]
    fn cfg_test_marks_ranges_structurally() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let it = items(src);
        assert_eq!(it.test_ranges, vec![(2, 5)]);
        let t = it.fns.iter().find(|f| f.name == "t").unwrap();
        assert!(t.in_test);
        assert!(!it.fns.iter().find(|f| f.name == "after").unwrap().in_test);
    }

    #[test]
    fn cfg_test_fn_and_semicolon_item() {
        let src = "#[cfg(test)]\nfn helper() {\n}\n#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let it = items(src);
        assert_eq!(it.test_ranges, vec![(1, 3), (4, 5)]);
    }

    #[test]
    fn braces_in_strings_do_not_confuse_spans() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let s = \"}\"; }\n}\nfn live() {}\n";
        let it = items(src);
        assert_eq!(it.test_ranges, vec![(1, 4)]);
        assert!(!it.fns.iter().find(|f| f.name == "live").unwrap().in_test);
    }

    #[test]
    fn bodyless_trait_fn() {
        let src = "trait T {\n fn req(&self, seed: u64) -> u64;\n}\n";
        let it = items(src);
        assert_eq!(it.fns.len(), 1);
        assert!(it.fns[0].body.is_empty());
        assert_eq!(it.fns[0].ret, "u64");
    }

    #[test]
    fn nested_cfg_test_not_double_counted() {
        let src = "#[cfg(test)]\nmod tests {\n    #[cfg(test)]\n    fn t() {}\n}\n";
        let it = items(src);
        assert_eq!(it.test_ranges, vec![(1, 5)]);
    }
}
