//! The rule registry: structural checks over a preprocessed
//! [`SourceFile`] (token forest + parsed items), with diagnostics
//! reconstructed against the masked text so messages stay stable.

use std::collections::BTreeSet;

use crate::flow::{float_idents, NoUnorderedFloatReduce, SeedFlow};
use crate::index::Workspace;
use crate::items::FnItem;
use crate::lexer::{is_float_literal, TokKind, Token};
use crate::source::SourceFile;
use crate::tree::{is_ident, is_punct, Tree};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A lint rule. `applies` scopes the rule to crates/files; `check` emits
/// diagnostics (suppressions are applied by the driver, not the rule);
/// `explain` is the long-form rationale behind `moe-lint --explain`.
pub trait Rule {
    fn name(&self) -> &'static str;
    fn explain(&self) -> &'static str;
    fn applies(&self, file: &SourceFile) -> bool;
    fn check(&self, file: &SourceFile, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// All rules, in report order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoUnseededRng),
        Box::new(NoWallClock),
        Box::new(NoPanicInLib),
        Box::new(NoFloatEq),
        Box::new(NoLossyFloatCast),
        Box::new(NoHashMapIterInSim),
        Box::new(ForbidUnsafeHeader),
        Box::new(NoEnvReadInSim),
        Box::new(SeedFlow),
        Box::new(NoUnorderedFloatReduce),
        Box::new(DeadPub),
    ]
}

/// Rationale for the two driver-level meta rules (they have no `Rule`
/// instance: the suppression machinery itself emits them).
const META_EXPLAIN: &[(&str, &str)] = &[
    (
        "unjustified-allow",
        "Every `lint:allow(rule)` marker must carry a ` -- justification` \
         explaining why the violation is acceptable at that site. A bare \
         suppression silences a check without leaving the reviewer anything \
         to audit, so the driver reports it even though the underlying rule \
         is also still reported.",
    ),
    (
        "unused-allow",
        "A justified `lint:allow(rule)` that no longer matches any \
         diagnostic on its line (or the line below) is dead: the code it \
         excused has been fixed or moved, and the stale marker would \
         silently swallow a future regression at that site. Delete it — or, \
         if it was masking a rule that simply did not fire yet, fix the \
         underlying code instead.",
    ),
];

/// Long-form rationale for `--explain <rule>`; `None` for unknown rules.
pub fn explain_rule(name: &str) -> Option<&'static str> {
    if let Some((_, text)) = META_EXPLAIN.iter().find(|(n, _)| *n == name) {
        return Some(text);
    }
    default_rules()
        .into_iter()
        .find(|r| r.name() == name)
        .map(|r| r.explain())
}

/// Every explainable rule name, in report order.
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = default_rules().iter().map(|r| r.name()).collect();
    names.extend(META_EXPLAIN.iter().map(|(n, _)| *n));
    names
}

/// Run every applicable rule over one file, honoring suppressions and
/// auditing the suppressions themselves (unjustified and stale markers).
pub fn check_file(file: &SourceFile, ws: &Workspace, rules: &[Box<dyn Rule>]) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for rule in rules {
        if rule.applies(file) {
            rule.check(file, ws, &mut raw);
        }
    }
    let mut out: Vec<Diagnostic> = raw
        .iter()
        .filter(|d| !file.is_suppressed(d.rule, d.line))
        .cloned()
        .collect();
    for sups in file.suppressions.values() {
        for s in sups {
            if !s.justified {
                out.push(Diagnostic {
                    path: file.rel.clone(),
                    line: s.line,
                    rule: "unjustified-allow",
                    message: format!(
                        "lint:allow({}) without a ` -- justification`; every suppression must say why",
                        s.rule
                    ),
                });
                continue;
            }
            // A justified marker is *used* iff some pre-filter diagnostic
            // of its rule lands on its line or the line below.
            let used = raw
                .iter()
                .any(|d| d.rule == s.rule && (d.line == s.line || d.line == s.line + 1));
            if !used && !file.is_suppressed("unused-allow", s.line) {
                out.push(Diagnostic {
                    path: file.rel.clone(),
                    line: s.line,
                    rule: "unused-allow",
                    message: format!(
                        "lint:allow({}) no longer suppresses anything; delete the stale marker",
                        s.rule
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out.dedup();
    out
}

fn diag_at(file: &SourceFile, line: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        path: file.rel.clone(),
        line,
        rule,
        message,
    }
}

/// Is token `i` (an ident) immediately followed by `::` `member`?
fn path_pair(toks: &[Token], i: usize, head: &str, member: &str) -> bool {
    toks[i].is_ident(head)
        && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
        && toks.get(i + 2).is_some_and(|t| t.is_ident(member))
}

/// The innermost parsed `fn` whose span covers 1-based `line`.
fn enclosing_fn(file: &SourceFile, line: usize) -> Option<&FnItem> {
    file.fns
        .iter()
        .rev()
        .find(|f| f.line <= line && line <= f.end_line)
}

// ---------------------------------------------------------------------------
// no-unseeded-rng
// ---------------------------------------------------------------------------

/// Bans every entropy-seeded RNG constructor, everywhere — tests included.
/// Reproducibility is the whole point of the simulator: all randomness must
/// flow from an explicit seed through `moe_tensor::rng::DetRng`.
pub struct NoUnseededRng;

const RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "from_os_rng", "OsRng"];

impl Rule for NoUnseededRng {
    fn name(&self) -> &'static str {
        "no-unseeded-rng"
    }

    fn explain(&self) -> &'static str {
        "Entropy-seeded constructors (thread_rng, from_entropy, OsRng, \
         rand::random) make every run unique, so no result can be replayed \
         or bisected. The workspace routes all randomness through \
         moe_tensor::rng::rng_from_seed, a counter-mode ChaCha8 stream that \
         is a pure function of an explicit u64 seed. The rule applies even \
         in tests: a test that cannot be replayed cannot be debugged."
    }

    fn applies(&self, _file: &SourceFile) -> bool {
        true
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let mut hits: BTreeSet<(usize, &str)> = BTreeSet::new();
        for (i, t) in file.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if let Some(pat) = RNG_IDENTS.iter().find(|p| t.is_ident(p)) {
                hits.insert((t.line, pat));
            }
            if path_pair(&file.tokens, i, "rand", "random") {
                hits.insert((t.line, "rand::random"));
            }
        }
        for (line, pat) in hits {
            out.push(diag_at(
                file,
                line,
                self.name(),
                format!("`{pat}` is entropy-seeded; use moe_tensor::rng::rng_from_seed"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-wall-clock
// ---------------------------------------------------------------------------

/// Bans wall-clock reads inside the simulation crates. Simulated time must
/// come from the event queue / cost model; a wall-clock read makes results
/// depend on host speed. The bench harness (its own crate) is the one place
/// timing the host is the point.
pub struct NoWallClock;

const CLOCK_PAIRS: &[(&str, &str, &str)] = &[
    ("Instant", "now", "Instant::now"),
    ("SystemTime", "now", "SystemTime::now"),
];
const CLOCK_CRATES: &[&str] = &["gpusim", "engine", "runtime", "ctrl", "plan", "par", "mem"];

impl Rule for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn explain(&self) -> &'static str {
        "Simulated time comes from the discrete-event queue and the \
         analytic cost model; reading Instant::now or SystemTime::now \
         inside a simulation crate couples results to host speed and load, \
         which breaks byte-identical replays and makes CI timing-sensitive. \
         Only the bench crate (whose entire job is timing the host) may \
         read the wall clock."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        CLOCK_CRATES.contains(&file.crate_name.as_str())
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let mut hits: BTreeSet<(usize, &str)> = BTreeSet::new();
        for (i, t) in file.tokens.iter().enumerate() {
            for (head, member, pat) in CLOCK_PAIRS {
                if path_pair(&file.tokens, i, head, member) {
                    hits.insert((t.line, pat));
                }
            }
        }
        for (line, pat) in hits {
            out.push(diag_at(
                file,
                line,
                self.name(),
                format!("`{pat}` reads the wall clock inside a simulation crate; simulated time must come from the DES/cost model"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-panic-in-lib
// ---------------------------------------------------------------------------

/// Bans `.unwrap()` / `.expect(` / `panic!(` in non-test library code. The
/// bench harness crate and the `examples/` directory are exempt: fail-fast
/// top-level drivers are the right design there, and neither is linked
/// into the simulator.
pub struct NoPanicInLib;

impl Rule for NoPanicInLib {
    fn name(&self) -> &'static str {
        "no-panic-in-lib"
    }

    fn explain(&self) -> &'static str {
        "A panic in library code aborts the whole experiment sweep, \
         including unrelated configurations queued behind the failing one. \
         Library paths must return Result or handle the case; panicking is \
         reserved for tests (where it is the assertion mechanism), the \
         bench crate, and examples/ — fail-fast top-level drivers that are \
         never linked into the simulator."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        file.crate_name != "bench"
            && !file.is_test_file
            && !file.rel.split('/').any(|seg| seg == "examples")
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let toks = &file.tokens;
        let mut hits: BTreeSet<(usize, &str)> = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            if file.line_in_test(t.line) {
                continue;
            }
            let next_open = |j: usize| {
                toks.get(j)
                    .is_some_and(|t| t.kind == TokKind::Open && t.text == "(")
            };
            // `.unwrap()` — exactly empty parens, so `.unwrap_or(..)` and
            // `.unwrap_or_else(..)` stay legal.
            if t.is_punct(".")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
                && next_open(i + 2)
                && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Close)
            {
                hits.insert((t.line, ".unwrap()"));
            }
            if t.is_punct(".")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
                && next_open(i + 2)
            {
                hits.insert((t.line, ".expect("));
            }
            if t.is_ident("panic")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && next_open(i + 2)
            {
                hits.insert((t.line, "panic!("));
            }
        }
        for (line, pat) in hits {
            out.push(diag_at(
                file,
                line,
                self.name(),
                format!("`{pat}` can panic in library code; return an error or handle the case"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-float-eq
// ---------------------------------------------------------------------------

/// Bans `==` / `!=` where either operand is a float literal or carries an
/// `f32`/`f64` suffix. Exact float comparison is almost always a rounding
/// bug; compare with a tolerance or on bit patterns.
pub struct NoFloatEq;

impl Rule for NoFloatEq {
    fn name(&self) -> &'static str {
        "no-float-eq"
    }

    fn explain(&self) -> &'static str {
        "Exact float comparison against a literal is almost always a \
         rounding bug waiting for a different code path: two mathematically \
         equal computations can differ in the last ulp. Compare with an \
         explicit tolerance, or compare bit patterns (to_bits) when literal \
         identity is genuinely intended. Tests are exempt — asserting on \
         bit-exact replay is the determinism contract itself."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        !file.is_test_file
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if !(t.is_punct("==") || t.is_punct("!=")) || file.line_in_test(t.line) {
                continue;
            }
            let lhs_float = i
                .checked_sub(1)
                .and_then(|j| toks.get(j))
                .is_some_and(num_float);
            let rhs_float = {
                let mut j = i + 1;
                // A sign glued onto the literal (`== -1.0`).
                if let (Some(sign), Some(num)) = (toks.get(j), toks.get(j + 1)) {
                    if (sign.is_punct("-") || sign.is_punct("+"))
                        && sign.line == num.line
                        && sign.col + 1 == num.col
                    {
                        j += 1;
                    }
                }
                toks.get(j).is_some_and(num_float)
            };
            if !(lhs_float || rhs_float) {
                continue;
            }
            let Some(line_text) = file.masked.get(t.line - 1) else {
                continue;
            };
            let pos = t.col.min(line_text.len());
            let lhs = token_before(line_text, pos);
            let rhs = token_after(line_text, (pos + 2).min(line_text.len()));
            out.push(diag_at(
                file,
                t.line,
                self.name(),
                format!(
                    "exact float comparison `{} {} {}`; use a tolerance or compare bit patterns",
                    lhs, t.text, rhs
                ),
            ));
        }
    }
}

fn num_float(t: &Token) -> bool {
    t.kind == TokKind::Num && is_float_literal(&t.text)
}

/// The expression token ending just before byte `pos` (identifier/number
/// path, greedily) — used only to reconstruct diagnostic text.
fn token_before(line: &str, pos: usize) -> &str {
    let b = line.as_bytes();
    let mut end = pos;
    while end > 0 && b[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let c = b[start - 1] as char;
        if c.is_alphanumeric() || matches!(c, '_' | '.' | ':') {
            start -= 1;
        } else {
            break;
        }
    }
    &line[start..end]
}

/// The expression token starting at byte `pos` (after the operator).
fn token_after(line: &str, pos: usize) -> &str {
    let b = line.as_bytes();
    let mut start = pos;
    while start < b.len() && b[start] == b' ' {
        start += 1;
    }
    let mut end = start;
    if end < b.len() && (b[end] == b'-' || b[end] == b'+') {
        end += 1;
    }
    while end < b.len() {
        let c = b[end] as char;
        if c.is_alphanumeric() || matches!(c, '_' | '.' | ':') {
            end += 1;
        } else {
            break;
        }
    }
    &line[start..end]
}

// ---------------------------------------------------------------------------
// no-lossy-float-cast
// ---------------------------------------------------------------------------

/// Bans `as usize` / `as u64` / ... where the source expression is visibly
/// float-valued (float literal, float-only method, a parenthesized group
/// mentioning floats, or a local the per-function dataflow knows is float)
/// inside the gpusim cost model and the planner built on it. `f64 -> usize`
/// truncates and saturates silently; counts must go through a checked
/// helper that asserts the value is a small non-negative integer.
pub struct NoLossyFloatCast;

const INT_TARGETS: &[&str] = &["usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32"];
const FLOAT_METHODS: &[&str] = &[
    "ceil", "floor", "round", "trunc", "sqrt", "powf", "powi", "ln", "log2", "log10", "exp",
];

impl Rule for NoLossyFloatCast {
    fn name(&self) -> &'static str {
        "no-lossy-float-cast"
    }

    fn explain(&self) -> &'static str {
        "`f64 as usize` truncates toward zero and saturates out-of-range \
         values silently, so an off-by-one-ulp cost estimate becomes an \
         off-by-one tile count with no error. In the cost model (gpusim) \
         and the planner built on it, float-to-count conversions must go \
         through moe_gpusim::convert::f64_to_count, which asserts the value \
         is a small non-negative near-integer. The rule tracks float-typed \
         locals per function, so naming an intermediate does not hide the \
         cast."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        ["gpusim", "plan", "mem"].contains(&file.crate_name.as_str()) && !file.is_test_file
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let toks = &file.tokens;
        let mut hits: BTreeSet<(usize, String)> = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("as") || file.line_in_test(t.line) {
                continue;
            }
            let Some(target) = toks
                .get(i + 1)
                .filter(|n| n.kind == TokKind::Ident && INT_TARGETS.contains(&n.text.as_str()))
            else {
                continue;
            };
            if float_valued_before(file, i) {
                hits.insert((t.line, target.text.clone()));
            }
        }
        for (line, target) in hits {
            out.push(diag_at(
                file,
                line,
                self.name(),
                format!(
                    "float expression cast with `as {target}` truncates/saturates silently; use a checked conversion helper"
                ),
            ));
        }
    }
}

/// Does the expression ending just before token `i` look float-valued?
fn float_valued_before(file: &SourceFile, i: usize) -> bool {
    let toks = &file.tokens;
    let Some(prev) = i.checked_sub(1).and_then(|j| toks.get(j)) else {
        return false;
    };
    // `(…) as usize`: scan the group contents for float evidence, then
    // check for a float-only method call (`x.ceil() as u64`).
    if prev.kind == TokKind::Close && prev.text == ")" {
        let mut depth = 0i64;
        let mut open = None;
        for j in (0..i).rev() {
            match (toks[j].kind, toks[j].text.as_str()) {
                (TokKind::Close, ")") => depth += 1,
                (TokKind::Open, "(") => {
                    depth -= 1;
                    if depth == 0 {
                        open = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let Some(open) = open else {
            return false;
        };
        let inside_float = toks[open + 1..i - 1].iter().any(|t| {
            t.is_ident("f64")
                || t.is_ident("f32")
                || num_float(t)
                || (t.kind == TokKind::Num && (t.text.contains("f64") || t.text.contains("f32")))
        });
        if inside_float {
            return true;
        }
        let method = open
            .checked_sub(1)
            .and_then(|j| toks.get(j))
            .filter(|m| m.kind == TokKind::Ident)
            .filter(|_| open >= 2 && toks[open - 2].is_punct("."));
        return method.is_some_and(|m| FLOAT_METHODS.contains(&m.text.as_str()));
    }
    if num_float(prev) {
        return true;
    }
    // A local the per-function dataflow knows is float-typed.
    if prev.kind == TokKind::Ident {
        if let Some(f) = enclosing_fn(file, prev.line) {
            return float_idents(f).contains(&prev.text);
        }
    }
    false
}

// ---------------------------------------------------------------------------
// no-hashmap-iter-in-sim
// ---------------------------------------------------------------------------

/// Bans iterating a `HashMap` inside the simulation crates (`gpusim`,
/// `runtime`, `cluster`, ..., and the `par` executor feeding them).
/// `HashMap` iteration order is randomized per process, so any simulator
/// state or report built from it is not reproducible. Keyed lookups are
/// fine; iteration must go through `BTreeMap` (or sorted keys). Two
/// passes: collect identifiers bound to a `HashMap` type (`name:
/// HashMap<..>` fields/params, `name = HashMap::new()` locals), then flag
/// order-observing uses of them.
pub struct NoHashMapIterInSim;

const HASHMAP_SIM_CRATES: &[&str] = &["gpusim", "runtime", "cluster", "ctrl", "plan", "par", "mem"];
/// Order-observing methods that take no arguments (`()` required).
const ORDER_METHODS_EMPTY: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
];
/// Order-observing methods that take arguments.
const ORDER_METHODS_ARGS: &[&str] = &["drain", "retain"];

impl Rule for NoHashMapIterInSim {
    fn name(&self) -> &'static str {
        "no-hashmap-iter-in-sim"
    }

    fn explain(&self) -> &'static str {
        "std HashMap randomizes its hash state per process, so iteration \
         order differs between runs even with identical inputs. Any \
         simulator decision or report row produced by iterating one is \
         nondeterministic. Keyed lookups (get, contains_key, insert) are \
         fine; anything order-observing (iter, keys, values, drain, retain, \
         for-in) must use a BTreeMap or iterate sorted keys. The rule binds \
         names to HashMap declarations and flags order-observing uses of \
         those names in the simulation crates."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        HASHMAP_SIM_CRATES.contains(&file.crate_name.as_str()) && !file.is_test_file
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let names = bindings_of(&file.tokens, &["HashMap"]);
        if names.is_empty() {
            return;
        }
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident || !names.contains(&t.text) || file.line_in_test(t.line) {
                continue;
            }
            let is_method = toks.get(i + 1).is_some_and(|d| d.is_punct("."))
                && toks
                    .get(i + 3)
                    .is_some_and(|o| o.kind == TokKind::Open && o.text == "(");
            if !is_method {
                continue;
            }
            let Some(m) = toks.get(i + 2).filter(|m| m.kind == TokKind::Ident) else {
                continue;
            };
            let empty_call = toks.get(i + 4).is_some_and(|c| c.kind == TokKind::Close);
            let observing = (ORDER_METHODS_EMPTY.contains(&m.text.as_str()) && empty_call)
                || ORDER_METHODS_ARGS.contains(&m.text.as_str());
            if observing {
                out.push(diag_at(
                    file,
                    m.line,
                    self.name(),
                    format!(
                        "iterating `HashMap` `{}` (via `{}`) in a simulation crate; \
                         iteration order is nondeterministic — use `BTreeMap` or sort the keys",
                        t.text, m.text
                    ),
                ));
            }
        }
        for_in_over(file, &file.trees, &names, self.name(), out);
    }
}

/// Flag `for .. in [&[mut ]][self.]name` loops over the given names.
fn for_in_over(
    file: &SourceFile,
    seq: &[Tree],
    names: &[String],
    rule: &'static str,
    out: &mut Vec<Diagnostic>,
) {
    let mut i = 0usize;
    while i < seq.len() {
        if let Tree::Group(g) = &seq[i] {
            for_in_over(file, &g.children, names, rule, out);
            i += 1;
            continue;
        }
        if !is_ident(&seq[i], "for") {
            i += 1;
            continue;
        }
        let Some(in_pos) = (i + 1..seq.len())
            .take_while(|&j| seq[j].group().is_none_or(|g| g.delim != '{'))
            .find(|&j| is_ident(&seq[j], "in"))
        else {
            i += 1;
            continue;
        };
        let Some(body_pos) =
            (in_pos + 1..seq.len()).find(|&j| seq[j].group().is_some_and(|g| g.delim == '{'))
        else {
            i += 1;
            continue;
        };
        let mut expr = &seq[in_pos + 1..body_pos];
        // Strip `&` / `&mut` / leading `self.` — the loop must end *at*
        // the map itself; method chains are caught by the method pass.
        while let Some(first) = expr.first() {
            if is_punct(first, "&") || is_ident(first, "mut") {
                expr = &expr[1..];
            } else if expr.len() >= 3 && is_ident(first, "self") && is_punct(&expr[1], ".") {
                expr = &expr[2..];
            } else {
                break;
            }
        }
        if expr.len() == 1 {
            if let Some(t) = expr[0].leaf().filter(|t| t.kind == TokKind::Ident) {
                if names.contains(&t.text) && !file.line_in_test(seq[i].line()) {
                    out.push(diag_at(
                        file,
                        seq[i].line(),
                        rule,
                        format!(
                            "`for .. in` over `HashMap` `{}` in a simulation crate; \
                             iteration order is nondeterministic — use `BTreeMap` or sort the keys",
                            t.text
                        ),
                    ));
                }
            }
        }
        i = body_pos + 1;
    }
}

/// Identifiers the file binds to one of the given container types:
/// `name: [&[mut ]]Type<..>` (fields, params, typed lets) and
/// `name = Type::new()`-style locals. Path qualifiers
/// (`std::collections::Type`) are skipped.
pub(crate) fn bindings_of(tokens: &[Token], types: &[&str]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokKind::Ident || !types.contains(&t.text.as_str()) {
            continue;
        }
        // Rewind over a path prefix.
        let mut j = i;
        while j >= 2 && tokens[j - 1].is_punct("::") && tokens[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        // Rewind over reference sigils and lifetimes.
        while let Some(prev) = j.checked_sub(1).and_then(|k| tokens.get(k)) {
            if prev.is_punct("&") || prev.is_ident("mut") || prev.kind == TokKind::Lifetime {
                j -= 1;
            } else {
                break;
            }
        }
        let bound = j
            .checked_sub(1)
            .and_then(|k| tokens.get(k))
            .filter(|p| p.is_punct(":") || p.is_punct("="))
            .and_then(|_| j.checked_sub(2))
            .and_then(|k| tokens.get(k))
            .filter(|n| n.kind == TokKind::Ident && n.text != "let" && n.text != "mut");
        if let Some(n) = bound {
            if !names.contains(&n.text) {
                names.push(n.text.clone());
            }
        }
    }
    names
}

// ---------------------------------------------------------------------------
// forbid-unsafe-header
// ---------------------------------------------------------------------------

/// Every crate root must carry `#![forbid(unsafe_code)]` so the whole
/// workspace is statically known to be safe Rust.
pub struct ForbidUnsafeHeader;

impl Rule for ForbidUnsafeHeader {
    fn name(&self) -> &'static str {
        "forbid-unsafe-header"
    }

    fn explain(&self) -> &'static str {
        "With `#![forbid(unsafe_code)]` in every crate root, the compiler \
         proves the entire workspace is safe Rust — no reviewer has to \
         audit for transmutes or raw-pointer tricks, and `forbid` (unlike \
         `deny`) cannot be overridden further down the module tree."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        file.is_crate_root
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        if !file.raw.contains("#![forbid(unsafe_code)]") {
            out.push(diag_at(
                file,
                1,
                self.name(),
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// no-env-read-in-sim
// ---------------------------------------------------------------------------

/// Bans `std::env::var` / `var_os` outside the `par` executor and the
/// bench harness. Simulation results must be a pure function of the
/// explicit experiment configuration; an environment read is a hidden
/// input that does not appear in the recorded config.
pub struct NoEnvReadInSim;

const ENV_EXEMPT_CRATES: &[&str] = &["par", "bench", "lint"];

impl Rule for NoEnvReadInSim {
    fn name(&self) -> &'static str {
        "no-env-read-in-sim"
    }

    fn explain(&self) -> &'static str {
        "Reports record the experiment configuration so results can be \
         reproduced from it alone. An env read inside a simulation crate \
         is a hidden input: two hosts with different environments silently \
         produce different results from the same recorded config. Env \
         reads are confined to moe-par (MOE_THREADS, a documented \
         execution knob that must not change results) and the bench/lint \
         binaries, which are host tools, not simulators."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        !ENV_EXEMPT_CRATES.contains(&file.crate_name.as_str())
            && !file.is_test_file
            && !file.rel.split('/').any(|seg| seg == "examples")
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if file.line_in_test(t.line) {
                continue;
            }
            for member in ["var", "var_os"] {
                if path_pair(toks, i, "env", member) {
                    out.push(diag_at(
                        file,
                        t.line,
                        self.name(),
                        format!(
                            "`env::{member}` reads the environment inside a simulation crate; \
                             results must be a pure function of the explicit config"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// dead-pub
// ---------------------------------------------------------------------------

/// Flags a `pub fn` under `crates/*/src/` that no other file mentions by
/// name in live code: it is private in all but name, test-only, or dead.
pub struct DeadPub;

impl Rule for DeadPub {
    fn name(&self) -> &'static str {
        "dead-pub"
    }

    fn explain(&self) -> &'static str {
        "A `pub fn` is an API promise: every one is surface a reader must \
         learn and a refactor must keep. When no other file names it \
         outside `#[cfg(test)]` scope and outside `use` declarations, it \
         is private in all but name, used only by tests, or dead. Make it \
         private (rustc's dead_code lint then reports anything only unit \
         tests used), move it into `#[cfg(test)]` if tests keep it as a \
         reference, or delete it. Files under tests/, benches/, examples/ \
         and the root src/ count wholly as callers, a fn-pointer mention \
         such as `.map(Type::f)` counts, and a `pub use` re-export does \
         not. Resolution is by name, so a name collision can hide a dead \
         item but never flags a live one."
    }

    fn applies(&self, file: &SourceFile) -> bool {
        let parts: Vec<&str> = file.rel.split('/').collect();
        parts.len() > 3 && parts[0] == "crates" && parts[2] == "src" && !file.is_test_file
    }

    fn check(&self, file: &SourceFile, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for f in &file.fns {
            if f.is_pub && !f.in_test && !ws.mentioned_outside(&f.name, &file.rel) {
                out.push(diag_at(
                    file,
                    f.line,
                    self.name(),
                    format!(
                        "`pub fn {}` has no caller outside this file; make it private, \
                         move it into #[cfg(test)] or delete it",
                        f.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::from_source(rel, src);
        let ws = Workspace::single(&f);
        check_file(&f, &ws, &default_rules())
    }

    fn rules_hit(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    // --- planted violations, one per rule ---

    #[test]
    fn detects_unseeded_rng() {
        let d = run_on("crates/x/src/a.rs", "let mut r = rand::thread_rng();\n");
        assert!(rules_hit(&d).contains(&"no-unseeded-rng"), "{d:?}");
    }

    #[test]
    fn unseeded_rng_applies_even_in_tests() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { let r = SmallRng::from_entropy(); }\n}\n";
        let d = run_on("crates/x/src/a.rs", src);
        assert!(rules_hit(&d).contains(&"no-unseeded-rng"), "{d:?}");
    }

    #[test]
    fn detects_wall_clock_in_sim_crates() {
        let src = "let t0 = std::time::Instant::now();\n";
        let d = run_on("crates/gpusim/src/a.rs", src);
        assert!(rules_hit(&d).contains(&"no-wall-clock"), "{d:?}");
        // ... but not in the tensor crate.
        let d = run_on("crates/tensor/src/a.rs", src);
        assert!(!rules_hit(&d).contains(&"no-wall-clock"), "{d:?}");
    }

    #[test]
    fn detects_panics_in_lib_code() {
        for src in [
            "x.unwrap();\n",
            "x.expect(\"oops\");\n",
            "panic!(\"boom\");\n",
        ] {
            let d = run_on("crates/x/src/a.rs", src);
            assert!(
                rules_hit(&d).contains(&"no-panic-in-lib"),
                "{src:?} -> {d:?}"
            );
        }
    }

    #[test]
    fn panics_allowed_in_test_scope_and_bench_crate() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(run_on("crates/x/src/a.rs", src).is_empty());
        assert!(run_on("crates/bench/src/a.rs", "x.unwrap();\n").is_empty());
        assert!(run_on("crates/x/tests/it.rs", "x.unwrap();\n").is_empty());
        assert!(run_on("examples/demo.rs", "x.unwrap();\n").is_empty());
    }

    #[test]
    fn unwrap_or_is_not_a_panic() {
        assert!(run_on("crates/x/src/a.rs", "let y = x.unwrap_or(0);\n").is_empty());
    }

    #[test]
    fn detects_float_eq() {
        for src in [
            "if v == 0.0 { }\n",
            "if 1.5 != x { }\n",
            "let b = m == 7.0;\n",
        ] {
            let d = run_on("crates/x/src/a.rs", src);
            assert!(rules_hit(&d).contains(&"no-float-eq"), "{src:?} -> {d:?}");
        }
    }

    #[test]
    fn float_eq_message_reconstructs_operands() {
        let d = run_on("crates/x/src/a.rs", "if util == 1.0 { }\n");
        assert_eq!(
            d[0].message,
            "exact float comparison `util == 1.0`; use a tolerance or compare bit patterns"
        );
    }

    #[test]
    fn int_eq_is_fine() {
        for src in [
            "if v == 0 { }\n",
            "if e == 0x0f { }\n",
            "let b = a <= 1.0;\n",
        ] {
            let d = run_on("crates/x/src/a.rs", src);
            assert!(!rules_hit(&d).contains(&"no-float-eq"), "{src:?} -> {d:?}");
        }
    }

    #[test]
    fn detects_lossy_float_cast_in_gpusim() {
        for src in [
            "let n = (x / y as f64).max(1.0) as usize;\n",
            "let n = x.ceil() as u64;\n",
            "let n = 2.5 as usize;\n",
        ] {
            let d = run_on("crates/gpusim/src/a.rs", src);
            assert!(
                rules_hit(&d).contains(&"no-lossy-float-cast"),
                "{src:?} -> {d:?}"
            );
        }
    }

    #[test]
    fn lossy_cast_tracks_float_locals_through_names() {
        let src =
            "fn f(x: f64) -> usize {\n    let clamped = x.max(0.0);\n    clamped as usize\n}\n";
        let d = run_on("crates/gpusim/src/a.rs", src);
        assert!(
            rules_hit(&d).contains(&"no-lossy-float-cast"),
            "{src:?} -> {d:?}"
        );
    }

    #[test]
    fn integer_casts_are_fine() {
        for src in [
            "let n = len as u64;\n",
            "let n = (a + b) as usize;\n",
            "let x = n as f64;\n",
        ] {
            let d = run_on("crates/gpusim/src/a.rs", src);
            assert!(
                !rules_hit(&d).contains(&"no-lossy-float-cast"),
                "{src:?} -> {d:?}"
            );
        }
    }

    #[test]
    fn lossy_cast_rule_scoped_to_gpusim() {
        let d = run_on("crates/tensor/src/a.rs", "let n = x.ceil() as u64;\n");
        assert!(!rules_hit(&d).contains(&"no-lossy-float-cast"), "{d:?}");
    }

    #[test]
    fn detects_hashmap_iteration_in_sim_crates() {
        // Field declaration + method iteration.
        let src =
            "struct S { seqs: HashMap<u64, Seq> }\nfn f(s: &S) { for v in s.seqs.values() { } }\n";
        let d = run_on("crates/runtime/src/a.rs", src);
        assert!(rules_hit(&d).contains(&"no-hashmap-iter-in-sim"), "{d:?}");

        // Local binding + bare for-loop (with borrow and path qualifier).
        let src = "fn f() {\n    let mut live = std::collections::HashMap::new();\n    for (k, v) in &live { }\n}\n";
        let d = run_on("crates/cluster/src/a.rs", src);
        assert!(rules_hit(&d).contains(&"no-hashmap-iter-in-sim"), "{d:?}");

        // retain/drain/keys are order-observing too.
        for method in ["m.retain(|_, _| true);", "m.drain();", "m.keys();"] {
            let src = format!("fn f(m: &mut HashMap<u64, u64>) {{ {method} }}\n");
            let d = run_on("crates/gpusim/src/a.rs", &src);
            assert!(
                rules_hit(&d).contains(&"no-hashmap-iter-in-sim"),
                "{method:?} -> {d:?}"
            );
        }
    }

    #[test]
    fn hashmap_lookups_and_other_crates_are_fine() {
        // Keyed access never observes iteration order.
        let src = "struct S { seqs: HashMap<u64, Seq> }\nfn f(s: &S) { s.seqs.get(&1); s.seqs.contains_key(&2); }\n";
        assert!(run_on("crates/runtime/src/a.rs", src).is_empty());

        // Iterating some *other* collection with a similar name is fine.
        let src = "struct S { seqs: HashMap<u64, Seq>, ids: Vec<u64> }\nfn f(s: &S) { for v in s.prefix_seqs.iter() { } for i in &s.ids { } }\n";
        assert!(run_on("crates/runtime/src/a.rs", src).is_empty());

        // Outside the sim crates the rule does not apply.
        let src = "fn f(m: &HashMap<u64, u64>) { for v in m.values() { } }\n";
        assert!(run_on("crates/bench/src/a.rs", src).is_empty());

        // Test scope is exempt: tests may sort or assert as they like.
        let src = "struct S { seqs: HashMap<u64, u64> }\n#[cfg(test)]\nmod tests {\n    fn t(s: &super::S) { for v in s.seqs.values() { } }\n}\n";
        assert!(run_on("crates/runtime/src/a.rs", src).is_empty());
    }

    #[test]
    fn detects_missing_unsafe_header() {
        let d = run_on("crates/x/src/lib.rs", "//! docs\nfn f() {}\n");
        assert!(rules_hit(&d).contains(&"forbid-unsafe-header"), "{d:?}");
        let ok = run_on(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() {}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        // Non-root files are not required to carry the header.
        assert!(run_on("crates/x/src/other.rs", "fn f() {}\n").is_empty());
    }

    // --- new structural rules ---

    #[test]
    fn detects_env_read_in_sim() {
        let src = "let t = std::env::var(\"MOE_TRACE\").ok();\n";
        let d = run_on("crates/gpusim/src/a.rs", src);
        assert!(rules_hit(&d).contains(&"no-env-read-in-sim"), "{d:?}");
        // The executor and bench harness may read their knobs.
        assert!(run_on("crates/par/src/a.rs", src).is_empty());
        assert!(run_on("crates/bench/src/a.rs", src).is_empty());
        // `env::args` in a binary is not an env read.
        let args = "let a: Vec<String> = std::env::args().collect();\n";
        assert!(run_on("crates/eval/src/main.rs", args)
            .iter()
            .all(|d| d.rule != "no-env-read-in-sim"));
    }

    #[test]
    fn seed_flow_accepts_derived_and_flags_literal() {
        let ok = "fn f(seed: u64) {\n    let s2 = derive_seed(seed, 1);\n    let r = rng_from_seed(s2);\n}\n";
        assert!(run_on("crates/gpusim/src/a.rs", ok).is_empty());
        let bad = "fn f() {\n    let r = rng_from_seed(42);\n}\n";
        let d = run_on("crates/gpusim/src/a.rs", bad);
        assert!(rules_hit(&d).contains(&"seed-flow"), "{d:?}");
        // Tests may pin literal seeds.
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { let r = rng_from_seed(42); }\n}\n";
        assert!(run_on("crates/gpusim/src/a.rs", test).is_empty());
    }

    #[test]
    fn unordered_float_reduce_flags_hashmap_sum() {
        let src = "fn f(m: &HashMap<u64, f64>) -> f64 {\n    m.values().copied().sum::<f64>()\n}\n";
        let d = run_on("crates/eval/src/a.rs", src);
        assert!(
            rules_hit(&d).contains(&"no-unordered-float-reduce"),
            "{d:?}"
        );
        // Integer reduction over the same container is order-insensitive.
        let ok = "fn f(m: &HashMap<u64, u64>) -> u64 {\n    m.values().copied().sum::<u64>()\n}\n";
        let d = run_on("crates/eval/src/a.rs", ok);
        assert!(
            !rules_hit(&d).contains(&"no-unordered-float-reduce"),
            "{d:?}"
        );
    }

    #[test]
    fn unordered_float_reduce_flags_par_closure_accumulation() {
        let src = "fn f(xs: &[f64]) -> f64 {\n    let mut total = 0.0;\n    moe_par::for_each_chunk_mut(xs, 8, |chunk| {\n        total += chunk[0];\n    });\n    total\n}\n";
        let d = run_on("crates/eval/src/a.rs", src);
        assert!(
            rules_hit(&d).contains(&"no-unordered-float-reduce"),
            "{d:?}"
        );
        // Closure-local accumulation is fine: the merge is ordered.
        let ok = "fn f(xs: &[f64]) -> f64 {\n    let sums = moe_par::map_collect(xs, |x| {\n        let mut local = 0.0;\n        local += *x;\n        local\n    });\n    sums.iter().sum()\n}\n";
        let d = run_on("crates/eval/src/a.rs", ok);
        assert!(
            !rules_hit(&d).contains(&"no-unordered-float-reduce"),
            "{d:?}"
        );
    }

    // --- dead-pub: cross-file cases ---

    /// `dead-pub` diagnostics for file `target` of a multi-file workspace.
    fn dead_pub_in(files: &[(&str, &str)], target: &str) -> Vec<usize> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::from_source(rel, src))
            .collect();
        let ws = Workspace::build(&parsed);
        let file = parsed.iter().find(|f| f.rel == target).unwrap();
        check_file(file, &ws, &default_rules())
            .into_iter()
            .filter(|d| d.rule == "dead-pub")
            .map(|d| d.line)
            .collect()
    }

    const LIB: (&str, &str) = ("crates/a/src/lib.rs", "pub fn f() {}\n");

    #[test]
    fn dead_pub_counts_fn_pointer_mentions() {
        let user = (
            "crates/b/src/lib.rs",
            "fn g(xs: &[u8]) { xs.iter().map(A::f); }\n",
        );
        assert!(dead_pub_in(&[LIB, user], LIB.0).is_empty());
    }

    #[test]
    fn dead_pub_ignores_reexports_and_other_files_tests() {
        let reexport = ("crates/b/src/lib.rs", "pub use a::f;\n");
        assert_eq!(dead_pub_in(&[LIB, reexport], LIB.0), vec![1]);
        let unit_test = (
            "crates/b/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { a::f(); }\n}\n",
        );
        assert_eq!(dead_pub_in(&[LIB, unit_test], LIB.0), vec![1]);
    }

    #[test]
    fn dead_pub_counts_tests_and_examples_wholly() {
        for rel in [
            "tests/it.rs",
            "crates/b/benches/bench.rs",
            "examples/demo.rs",
        ] {
            let caller = (
                rel,
                "#[cfg(test)]\nmod tests {\n    fn t() { a::f(); }\n}\n",
            );
            assert!(dead_pub_in(&[LIB, caller], LIB.0).is_empty(), "{rel}");
        }
    }

    #[test]
    fn dead_pub_never_flags_examples_or_tests() {
        for rel in ["examples/moe_perf/src/main.rs", "tests/it.rs"] {
            let lonely = (rel, "pub fn never_called() {}\n");
            assert!(dead_pub_in(&[LIB, lonely], rel).is_empty(), "{rel}");
        }
    }

    // --- suppression machinery ---

    #[test]
    fn justified_suppression_silences() {
        let src =
            "// lint:allow(no-panic-in-lib) -- startup config, fail fast is correct\nx.unwrap();\n";
        assert!(run_on("crates/x/src/a.rs", src).is_empty());
        let same_line = "x.unwrap(); // lint:allow(no-panic-in-lib) -- fail fast\n";
        assert!(run_on("crates/x/src/a.rs", same_line).is_empty());
    }

    #[test]
    fn unjustified_suppression_is_reported() {
        let src = "x.unwrap(); // lint:allow(no-panic-in-lib)\n";
        let d = run_on("crates/x/src/a.rs", src);
        let hits = rules_hit(&d);
        assert!(hits.contains(&"unjustified-allow"), "{d:?}");
        // And the underlying violation still fires.
        assert!(hits.contains(&"no-panic-in-lib"), "{d:?}");
    }

    #[test]
    fn suppression_for_wrong_rule_does_not_silence() {
        let src = "// lint:allow(no-float-eq) -- wrong rule\nx.unwrap();\n";
        let d = run_on("crates/x/src/a.rs", src);
        assert!(rules_hit(&d).contains(&"no-panic-in-lib"), "{d:?}");
    }

    #[test]
    fn stale_suppression_is_reported_unused() {
        // Justified, but nothing to suppress: the code below is clean.
        let src = "// lint:allow(no-panic-in-lib) -- stale excuse\nlet y = x.unwrap_or(0);\n";
        let d = run_on("crates/x/src/a.rs", src);
        assert_eq!(rules_hit(&d), vec!["unused-allow"], "{d:?}");
        // A live suppression is not flagged.
        let live = "// lint:allow(no-panic-in-lib) -- fail fast on purpose\nx.unwrap();\n";
        assert!(run_on("crates/x/src/a.rs", live).is_empty());
    }

    #[test]
    fn explain_covers_every_rule() {
        for name in rule_names() {
            assert!(explain_rule(name).is_some(), "{name} missing explain()");
        }
        assert!(explain_rule("no-such-rule").is_none());
    }

    // --- masking soundness ---

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src =
            "// calls thread_rng somewhere\nlet s = \"Instant::now panic!( .unwrap() == 0.0\";\n";
        let d = run_on("crates/gpusim/src/a.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }
}
