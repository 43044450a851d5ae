#!/usr/bin/env python3
"""turtlint — AST-level determinism and lock-discipline analyzer for turtle.

The repo's central contract is that every run is byte-identical across
--jobs: Table 1/Table 2 stay exact while the system scales. That contract
used to be guarded only at runtime (CI `cmp` gates) and by regex greps.
turtlint enforces it per commit as named, suppressible rules, together
with the repo's header conventions; it is the repo's one linter:

  D1  no iteration over std::unordered_map/set whose loop body reaches a
      serialization/output sink (JSON dump, RecordLog save, bench report)
      unless the range goes through an ordering helper
      (util::ordered / util::ordered_keys / an explicit sort).
  D2  no wall-clock reads (system_clock/steady_clock/high_resolution_clock,
      gettimeofday/clock_gettime/timespec_get) in src/ outside the
      sanctioned wall.* measurement site (util/thread_pool, whose task
      timings the ShardRunner exports under "wall.*" names the
      deterministic dump excludes).
  D3  PRNG discipline: util::Prng is never constructed from a literal seed
      in src/ (seeds flow from WorldOptions or fork() chains), and a
      fork() result must not escape by reference into more than one
      closure (two shards sharing one stream destroys replay).
  D4  no side-effecting expressions inside TURTLE_DCHECK*/TURTLE_CHECK's
      debug-only variants — they compile out under NDEBUG, so a mutation
      inside one makes release behavior diverge from debug.
  D5  no floating-point `float` in src/analysis/ — RTT arithmetic stays in
      double (24-bit mantissas visibly quantize the percentile tail).
  D6  no reinterpret_cast in src/serve/ outside snapshot_format.cc — the
      snapshot-v1 on-disk bytes are decoded at exactly one audited site
      (whose casts sit behind the checksum/layout validation in
      parse_header); everything else uses its read_*/append_* helpers and
      typed section views, so a format change cannot leave a stale
      hand-rolled decoder behind.
  D7  no raw rand()/srand()/time() calls in src/: randomness comes from
      util/prng and timestamps from util/sim_time, or a replayed run
      stops being bit-identical.
  H1  every header under src/, bench/ and tests/ has `#pragma once`.
  H2  no namespace-scope `using namespace` in those headers: it leaks
      into every includer (function-local ones are fine).

Engine: a self-contained C++ lexer plus structural passes (declaration
tracking, brace matching, loop-body analysis). The translation-unit list
comes from compile_commands.json when a build directory is given (-p),
falling back to a source-tree glob so the tool also runs pre-configure
(CI's lint job runs it before any build exists). The
rule interface is frontend-agnostic: the planned libclang (clang.cindex)
backend drops in behind the same Finding/Rule types once the toolchain
ships a libclang; the container's GCC-only image is why the shipping
frontend is the lexer.

Suppressions are inline, must name the rule, and must carry a reason:

    // turtlint: allow(D2) harness-side wall timing, lands under wall.*

A suppression with no reason is itself an error — CI counts and reports
every suppression, and refuses new ones that do not explain themselves.

Diagnostics print as `file:line: [D2] message`, deterministically sorted.
Exit status: 0 clean, 1 findings (or reasonless suppressions), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# C++ pp-number: digits/letters/quotes/dots, with sign allowed after e/E/p/P.
NUM_RE = re.compile(r"(?:\.\d|\d)(?:[A-Za-z0-9_.']|[eEpP][+-])*")
PUNCTS = [
    "<<=", ">>=", "->*", "...", "::", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "->", "##",
]
ALLOW_RE = re.compile(r"turtlint:\s*allow\(\s*([A-Z0-9,\s]+?)\s*\)\s*(.*)")


@dataclass
class Token:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct'
    value: str
    line: int


@dataclass
class Suppression:
    line: int          # line of code the suppression applies to
    rules: tuple
    reason: str
    comment_line: int  # where the comment itself sits
    used: bool = False


@dataclass
class LexedFile:
    path: str              # root-relative, forward slashes
    tokens: list
    suppressions: list     # [Suppression]
    directives: list = field(default_factory=list)  # [(line, first text line)]

    def allow(self, rule: str, line: int) -> bool:
        """Consumes a matching suppression for `rule` at `line`, if any."""
        for sup in self.suppressions:
            if sup.line == line and (rule in sup.rules or "ALL" in sup.rules):
                sup.used = True
                return True
        return False


def lex(path: str, text: str) -> LexedFile:
    tokens = []
    suppressions = []
    directives = []
    line = 1
    i = 0
    n = len(text)
    line_has_code = False  # any token emitted on the current line yet

    def note_allow(comment: str, comment_line: int, standalone: bool) -> None:
        match = ALLOW_RE.search(comment)
        if not match:
            return
        rules = tuple(r.strip() for r in match.group(1).split(",") if r.strip())
        reason = match.group(2).strip()
        target = comment_line + 1 if standalone else comment_line
        suppressions.append(Suppression(target, rules, reason, comment_line))

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            line_has_code = False
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end == -1 else end
            note_allow(text[i:end], line, standalone=not line_has_code)
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end == -1 else end + 2
            comment = text[i:end]
            note_allow(comment, line, standalone=not line_has_code)
            line += comment.count("\n")
            i = end
            continue
        if c == "#" and not line_has_code:
            # Preprocessor logical line (with continuations): rules operate
            # on code, not directives; macro *definitions* are the one
            # construct the lexer skips.
            first_end = text.find("\n", i)
            directives.append(
                (line, text[i:n if first_end == -1 else first_end].strip()))
            while i < n:
                end = text.find("\n", i)
                if end == -1:
                    i = n
                    break
                # Continuations and comments inside the directive.
                stripped = text[i:end]
                if "/*" in stripped and "*/" not in stripped:
                    close = text.find("*/", end)
                    end = close if close != -1 else n
                    line += text.count("\n", i, end)
                    i = end
                    continue
                line += 1
                i = end + 1
                if not stripped.rstrip().endswith("\\"):
                    break
            line_has_code = False
            continue
        if c == '"':
            if tokens and tokens[-1].kind == "id" and tokens[-1].value in (
                    "R", "LR", "uR", "UR", "u8R"):
                # Raw string literal: R"delim( ... )delim"
                paren = text.find("(", i)
                delim = text[i + 1:paren]
                closer = ")" + delim + '"'
                end = text.find(closer, paren)
                end = n if end == -1 else end + len(closer)
                tokens[-1] = Token("str", text[i:end], tokens[-1].line)
                line += text.count("\n", i, end)
                i = end
                line_has_code = True
                continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("str", text[i:j + 1], line))
            i = j + 1
            line_has_code = True
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            tokens.append(Token("chr", text[i:j + 1], line))
            i = j + 1
            line_has_code = True
            continue
        match = ID_RE.match(text, i)
        if match:
            tokens.append(Token("id", match.group(), line))
            i = match.end()
            line_has_code = True
            continue
        match = NUM_RE.match(text, i)
        if match:
            tokens.append(Token("num", match.group(), line))
            i = match.end()
            line_has_code = True
            continue
        for punct in PUNCTS:
            if text.startswith(punct, i):
                tokens.append(Token("punct", punct, line))
                i += len(punct)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
        line_has_code = True

    return LexedFile(path, tokens, suppressions, directives)


# --------------------------------------------------------------------------
# Structural helpers
# --------------------------------------------------------------------------

OPEN = {"(": ")", "[": "]", "{": "}", "<": ">"}


def match_forward(tokens, start: int, open_ch: str) -> int:
    """Index of the token closing tokens[start] (an `open_ch`), or len()."""
    close_ch = OPEN[open_ch]
    depth = 0
    for j in range(start, len(tokens)):
        v = tokens[j].value
        if v == open_ch:
            depth += 1
        elif v == close_ch:
            depth -= 1
            if depth == 0:
                return j
    return len(tokens)


UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
}
ORDERED_TYPES = {"map", "set", "multimap", "multiset", "vector", "deque",
                 "array", "list", "string"}


def scan_container_decls(tokens) -> dict:
    """Maps declared variable/member names to 'unordered' or 'ordered'.

    Recognizes `std::unordered_map<K, V> name`, with any mix of const, &,
    * between the closing > and the name. Intentionally scope-less (a
    linter over-approximation): later declarations win.
    """
    decls = {}
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == "id" and (tok.value in UNORDERED_TYPES or
                                 tok.value in ORDERED_TYPES):
            kind = "unordered" if tok.value in UNORDERED_TYPES else "ordered"
            j = i + 1
            if j < n and tokens[j].value == "<":
                j = match_forward(tokens, j, "<") + 1
            while j < n and (tokens[j].value in ("const", "&", "*", "&&") or
                             tokens[j].kind == "punct" and tokens[j].value in ("&", "*")):
                j += 1
            if j < n and tokens[j].kind == "id" and tokens[j].value not in (
                    "operator",):
                decls[tokens[j].value] = kind
            i = j
            continue
        i += 1
    return decls


# --------------------------------------------------------------------------
# Findings and rules
# --------------------------------------------------------------------------

@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class FileContext:
    lexed: LexedFile
    decls: dict = field(default_factory=dict)


class Rule:
    name = "D?"
    doc = ""

    def applies(self, path: str) -> bool:
        raise NotImplementedError

    def check(self, ctx: FileContext) -> list:
        raise NotImplementedError


def under(path: str, *prefixes: str) -> bool:
    return any(path == p or path.startswith(p.rstrip("/") + "/")
               for p in prefixes)


class RuleD1(Rule):
    """Unordered-container iteration reaching a serialization sink."""

    name = "D1"
    doc = ("no iteration over std::unordered_map/set whose body reaches an "
           "output sink; use util::ordered()/ordered_keys() or sort first")

    SINKS = {
        "write_json", "to_json", "write_prometheus", "dump", "save",
        "save_records", "write", "print", "printf", "fprintf", "puts",
        "emit", "add_row", "append_row", "report_row", "write_row",
    }
    STREAMY = re.compile(r"(os|out|ofs|oss|cout|cerr|stream|file)$")
    ORDERING_HELPERS = {"ordered", "ordered_keys", "sorted", "sorted_keys"}

    def applies(self, path: str) -> bool:
        return under(path, "src", "bench")

    def check(self, ctx: FileContext) -> list:
        findings = []
        tokens = ctx.lexed.tokens
        for i, tok in enumerate(tokens):
            if tok.kind != "id" or tok.value != "for":
                continue
            if i + 1 >= len(tokens) or tokens[i + 1].value != "(":
                continue
            close = match_forward(tokens, i + 1, "(")
            head = tokens[i + 2:close]
            range_tokens = self._range_of(head)
            if range_tokens is None:
                continue
            range_ids = [t.value for t in range_tokens if t.kind == "id"]
            if any(h in range_ids for h in self.ORDERING_HELPERS):
                continue
            unordered = (
                any(v in UNORDERED_TYPES for v in range_ids) or
                any(ctx.decls.get(v) == "unordered" for v in range_ids)
            )
            if not unordered:
                continue
            sink = self._sink_in_body(tokens, close + 1)
            if sink is None:
                continue
            if ctx.lexed.allow(self.name, tok.line):
                continue
            findings.append(Finding(
                ctx.lexed.path, tok.line, self.name,
                f"unordered-container iteration reaches output sink '{sink}': "
                "hash-table order is not deterministic across runs; iterate "
                "util::ordered()/ordered_keys() or collect and sort first"))
        return findings

    @staticmethod
    def _range_of(head):
        """Range tokens of a range-for, or the `.begin()` receiver of a
        classic iterator loop; None when neither shape matches."""
        depth = 0
        for k, tok in enumerate(head):
            if tok.value in "([{":
                depth += 1
            elif tok.value in ")]}":
                depth -= 1
            elif tok.value == ":" and depth == 0:
                return head[k + 1:]
        for k, tok in enumerate(head):
            if (tok.kind == "id" and tok.value in ("begin", "cbegin") and
                    k >= 2 and head[k - 1].value in (".", "->")):
                return [head[k - 2]]
        return None

    def _sink_in_body(self, tokens, body_start: int):
        if body_start >= len(tokens):
            return None
        if tokens[body_start].value == "{":
            body_end = match_forward(tokens, body_start, "{")
        else:  # single-statement body
            body_end = body_start
            while body_end < len(tokens) and tokens[body_end].value != ";":
                body_end += 1
        body = tokens[body_start:body_end]
        for k, tok in enumerate(body):
            if (tok.kind == "id" and tok.value in self.SINKS and
                    k + 1 < len(body) and body[k + 1].value == "("):
                return tok.value
            if (tok.value == "<<" and k > 0 and body[k - 1].kind == "id" and
                    self.STREAMY.search(body[k - 1].value)):
                return body[k - 1].value + " <<"
        return None


class RuleD2(Rule):
    """Wall-clock reads outside the sanctioned wall.* sites."""

    name = "D2"
    doc = ("no wall-clock reads in src/ outside util/thread_pool's wall.* "
           "measurement site; sim time comes from util/sim_time")

    CLOCK_IDS = {"system_clock", "steady_clock", "high_resolution_clock"}
    CLOCK_CALLS = {"gettimeofday", "clock_gettime", "timespec_get", "ftime"}
    # Sanctioned wall-clock sources. The thread pool's task timing feeds
    # "wall.*" metric names (excluded from the deterministic registry dump
    # by contract); the daemon's wall_clock.cc is the event loop's single
    # clock site, quarantined behind an injectable ClockFn the same way.
    ALLOWLIST = ("src/util/thread_pool.cc", "src/daemon/wall_clock.cc")

    def applies(self, path: str) -> bool:
        return under(path, "src") and path not in self.ALLOWLIST

    def check(self, ctx: FileContext) -> list:
        findings = []
        tokens = ctx.lexed.tokens
        for i, tok in enumerate(tokens):
            if tok.kind != "id":
                continue
            hit = None
            if tok.value in self.CLOCK_IDS:
                hit = tok.value
            elif (tok.value in self.CLOCK_CALLS and
                  i + 1 < len(tokens) and tokens[i + 1].value == "(" and
                  (i == 0 or tokens[i - 1].value not in (".", "->"))):
                hit = tok.value + "()"
            if hit is None:
                continue
            if ctx.lexed.allow(self.name, tok.line):
                continue
            findings.append(Finding(
                ctx.lexed.path, tok.line, self.name,
                f"wall-clock read ({hit}) outside the sanctioned wall.* "
                "sites: simulated time comes from util/sim_time; wall "
                "durations are measured in util/thread_pool (or the bench "
                "harness) and handed in as integers under wall.* names"))
        return findings


class RuleD3(Rule):
    """PRNG seeding and fork-stream escape discipline."""

    name = "D3"
    doc = ("util::Prng never built from a literal seed in src/, and a "
           "fork() result never escapes by reference into several closures")

    def applies(self, path: str) -> bool:
        return under(path, "src")

    def check(self, ctx: FileContext) -> list:
        findings = []
        tokens = ctx.lexed.tokens
        n = len(tokens)
        fork_vars = {}  # name -> decl line

        for i, tok in enumerate(tokens):
            if tok.kind != "id":
                continue
            # --- literal seeds: Prng{42} / Prng(0xBEEF) / Prng rng{7} -----
            if tok.value == "Prng" and i + 2 < n:
                j = i + 1
                # Declarations name the variable between type and init.
                if tokens[j].kind == "id":
                    j += 1
                if j + 2 < n and tokens[j].value in ("{", "("):
                    arg = tokens[j + 1]
                    closer = tokens[j + 2].value
                    if (arg.kind == "num" and "." not in arg.value and
                            closer in ("}", ")")):
                        if not ctx.lexed.allow(self.name, tok.line):
                            findings.append(Finding(
                                ctx.lexed.path, tok.line, self.name,
                                f"util::Prng constructed from literal seed "
                                f"{arg.value}: seeds must flow from "
                                "WorldOptions or fork() chains so --seed "
                                "replays the run"))
            # --- record `auto x = y.fork(...)` style declarations ---------
            if (tok.value == "fork" and i >= 2 and
                    tokens[i - 1].value in (".", "->") and
                    i + 1 < n and tokens[i + 1].value == "("):
                # Walk back over `name = recv .` or `name { recv .` to the
                # declared variable, if this is an init.
                j = i - 2  # receiver id
                if j >= 1 and tokens[j].kind == "id":
                    k = j - 1
                    if tokens[k].value in ("=", "{", "("):
                        k -= 1
                        if k >= 0 and tokens[k].kind == "id":
                            fork_vars.setdefault(tokens[k].value,
                                                 tokens[k].line)

        # --- fork() results captured by reference in >1 closure -----------
        for name, decl_line in fork_vars.items():
            captures = self._ref_capturing_lambdas(tokens, name)
            if len(captures) > 1 and not ctx.lexed.allow(self.name, decl_line):
                findings.append(Finding(
                    ctx.lexed.path, decl_line, self.name,
                    f"fork() stream '{name}' is captured by reference in "
                    f"{len(captures)} closures (lines "
                    f"{', '.join(str(l) for l in captures)}): each shard "
                    "closure needs its own forked stream or replay breaks"))
        return findings

    @staticmethod
    def _ref_capturing_lambdas(tokens, name: str) -> list:
        """Lines of lambdas that capture `name` by reference (explicitly or
        via a `[&]` default whose body mentions it)."""
        hits = []
        n = len(tokens)
        for i, tok in enumerate(tokens):
            if tok.value != "[":
                continue
            # Lambda introducer, not indexing: `[` not preceded by an
            # identifier/closing bracket.
            if i > 0 and (tokens[i - 1].kind in ("id", "num") or
                          tokens[i - 1].value in (")", "]")):
                continue
            close = match_forward(tokens, i, "[")
            if close >= n:
                continue
            nxt = tokens[close + 1].value if close + 1 < n else ""
            if nxt not in ("(", "{"):
                continue
            caps = tokens[i + 1:close]
            by_ref_default = any(
                t.value == "&" and (k == 0 or caps[k - 1].value == ",") and
                (k + 1 >= len(caps) or caps[k + 1].value == ",")
                for k, t in enumerate(caps))
            explicit_ref = any(
                t.value == "&" and k + 1 < len(caps) and
                caps[k + 1].kind == "id" and caps[k + 1].value == name
                for k, t in enumerate(caps))
            if not (by_ref_default or explicit_ref):
                continue
            # Body: next `{` after the introducer (skipping params/specs).
            body_open = close + 1
            while body_open < n and tokens[body_open].value != "{":
                if tokens[body_open].value == ";":
                    body_open = n
                    break
                body_open += 1
            if body_open >= n:
                continue
            body_close = match_forward(tokens, body_open, "{")
            mentioned = explicit_ref or any(
                t.kind == "id" and t.value == name
                for t in tokens[body_open:body_close])
            if mentioned:
                hits.append(tok.line)
        return hits


class RuleD4(Rule):
    """Side effects inside TURTLE_DCHECK* (compiled out under NDEBUG)."""

    name = "D4"
    doc = ("no side-effecting expressions inside TURTLE_DCHECK*: the whole "
           "statement compiles out under NDEBUG")

    DCHECKS = {"TURTLE_DCHECK", "TURTLE_DCHECK_EQ", "TURTLE_DCHECK_NE",
               "TURTLE_DCHECK_LT", "TURTLE_DCHECK_LE", "TURTLE_DCHECK_GT",
               "TURTLE_DCHECK_GE"}
    ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                  "<<=", ">>="}
    MUTATORS = {"push_back", "pop_back", "push_front", "pop_front", "insert",
                "erase", "emplace", "emplace_back", "emplace_front", "clear",
                "reset", "release", "resize", "assign", "splice", "merge"}

    def applies(self, path: str) -> bool:
        return under(path, "src", "bench", "tests")

    def check(self, ctx: FileContext) -> list:
        findings = []
        tokens = ctx.lexed.tokens
        n = len(tokens)
        for i, tok in enumerate(tokens):
            if tok.kind != "id" or tok.value not in self.DCHECKS:
                continue
            if i + 1 >= n or tokens[i + 1].value != "(":
                continue
            close = match_forward(tokens, i + 1, "(")
            # The streamed message tail (<< ...) compiles out too.
            end = close
            while end < n and tokens[end].value != ";":
                end += 1
            effect = self._side_effect(tokens[i + 2:close] +
                                       tokens[close + 1:end])
            if effect is None:
                continue
            if ctx.lexed.allow(self.name, tok.line):
                continue
            findings.append(Finding(
                ctx.lexed.path, tok.line, self.name,
                f"side effect ({effect}) inside {tok.value}: the statement "
                "compiles out under NDEBUG, so release builds would skip "
                "the mutation — hoist it out of the check"))
        return findings

    def _side_effect(self, body):
        for k, tok in enumerate(body):
            if tok.value in ("++", "--"):
                return tok.value
            if tok.value in self.ASSIGN_OPS and tok.kind == "punct":
                if tok.value == "=" and k > 0 and body[k - 1].value == "[":
                    continue  # lambda capture default [=]
                return f"'{tok.value}'"
            if (tok.kind == "id" and tok.value in self.MUTATORS and
                    k > 0 and body[k - 1].value in (".", "->") and
                    k + 1 < len(body) and body[k + 1].value == "("):
                return f".{tok.value}()"
        return None


class RuleD5(Rule):
    """float in analysis code (token-accurate)."""

    name = "D5"
    doc = ("no `float` in src/analysis/: RTT math stays in double; "
           "24-bit mantissas quantize the percentile tail")

    def applies(self, path: str) -> bool:
        return under(path, "src/analysis")

    def check(self, ctx: FileContext) -> list:
        findings = []
        for tok in ctx.lexed.tokens:
            hit = None
            if tok.kind == "id" and tok.value == "float":
                hit = "`float` type"
            elif (tok.kind == "num" and tok.value[-1] in "fF" and
                  not tok.value.lower().startswith("0x") and
                  ("." in tok.value or "e" in tok.value.lower())):
                hit = f"float literal {tok.value}"
            if hit is None:
                continue
            if ctx.lexed.allow(self.name, tok.line):
                continue
            findings.append(Finding(
                ctx.lexed.path, tok.line, self.name,
                f"{hit} in analysis code: RTT arithmetic stays in double "
                "(float's 24-bit mantissa visibly quantizes the tail)"))
        return findings


class RuleD6(Rule):
    """reinterpret_cast on serialized bytes outside the audited decoder."""

    name = "D6"
    doc = ("no reinterpret_cast in src/serve/ outside snapshot_format.cc: "
           "on-disk integers are decoded only at the one audited format "
           "site; use its read_*/append_* helpers or section views")

    # The single sanctioned cast site: snapshot_format.cc's section views,
    # which sit behind parse_header's checksum + exact-layout validation.
    ALLOWLIST = ("src/serve/snapshot_format.cc",)

    def applies(self, path: str) -> bool:
        return under(path, "src/serve") and path not in self.ALLOWLIST

    def check(self, ctx: FileContext) -> list:
        findings = []
        for tok in ctx.lexed.tokens:
            if tok.kind != "id" or tok.value != "reinterpret_cast":
                continue
            if ctx.lexed.allow(self.name, tok.line):
                continue
            findings.append(Finding(
                ctx.lexed.path, tok.line, self.name,
                "reinterpret_cast in serve code: on-disk bytes are decoded "
                "only by snapshot_format.cc (the audited cast site behind "
                "checksum/layout validation); use its read_*/append_* "
                "helpers or the typed section views"))
        return findings


class RuleD7(Rule):
    """Raw rand()/srand()/time() calls in simulation code."""

    name = "D7"
    doc = ("no raw rand()/srand()/time() calls in src/: randomness from "
           "util/prng, timestamps from util/sim_time")

    CALLS = {"rand", "srand", "time"}
    # Keywords that may directly precede a call; any other identifier
    # there is a return type, so the name is being declared, not called.
    EXPRESSION_KEYWORDS = {"return", "throw", "co_return", "co_yield",
                           "else", "do", "case"}

    def applies(self, path: str) -> bool:
        return under(path, "src")

    def check(self, ctx: FileContext) -> list:
        findings = []
        tokens = ctx.lexed.tokens
        for i, tok in enumerate(tokens):
            if (tok.kind != "id" or tok.value not in self.CALLS or
                    i + 1 >= len(tokens) or tokens[i + 1].value != "("):
                continue
            prev = tokens[i - 1] if i > 0 else None
            if prev is not None and prev.value in (".", "->"):
                continue  # a member named time(), not the C library's
            if (prev is not None and prev.kind == "id" and
                    prev.value not in self.EXPRESSION_KEYWORDS):
                continue  # declares a function named time()
            if (prev is not None and prev.value == "::" and i >= 2 and
                    tokens[i - 2].kind == "id" and tokens[i - 2].value != "std"):
                continue  # qualified by some other namespace or class
            if ctx.lexed.allow(self.name, tok.line):
                continue
            findings.append(Finding(
                ctx.lexed.path, tok.line, self.name,
                f"raw {tok.value}() call: draw randomness from util/prng "
                "(Prng) and timestamps from util/sim_time (SimTime) so runs "
                "replay deterministically"))
        return findings


HEADER_EXTS = (".h", ".hpp")


def is_header(path: str) -> bool:
    return path.endswith(HEADER_EXTS) and under(path, "src", "bench", "tests")


class RuleH1(Rule):
    """Headers without #pragma once."""

    name = "H1"
    doc = "every header under src/, bench/ and tests/ has `#pragma once`"

    PRAGMA_ONCE = re.compile(r"#\s*pragma\s+once\b")

    def applies(self, path: str) -> bool:
        return is_header(path)

    def check(self, ctx: FileContext) -> list:
        if any(self.PRAGMA_ONCE.match(text)
               for _line, text in ctx.lexed.directives):
            return []
        if ctx.lexed.allow(self.name, 1):
            return []
        return [Finding(ctx.lexed.path, 1, self.name,
                        "header lacks `#pragma once`: a second include "
                        "redefines everything in it")]


class RuleH2(Rule):
    """Namespace-scope using-directives in headers."""

    name = "H2"
    doc = ("no namespace-scope `using namespace` in headers: it leaks into "
           "every includer")

    def applies(self, path: str) -> bool:
        return is_header(path)

    @staticmethod
    def opens_namespace(tokens, brace: int) -> bool:
        """True when the `{` at tokens[brace] opens a namespace body or an
        extern "C" block (both keep the enclosing scope a namespace)."""
        j = brace - 1
        while j >= 0 and (tokens[j].kind == "id" and
                          tokens[j].value != "namespace" or
                          tokens[j].value == "::"):
            j -= 1
        if j >= 0 and tokens[j].value == "namespace":
            return True
        return (brace >= 2 and tokens[brace - 1].kind == "str" and
                tokens[brace - 2].value == "extern")

    def check(self, ctx: FileContext) -> list:
        findings = []
        tokens = ctx.lexed.tokens
        scopes = []  # True per open brace that opens a namespace body
        for i, tok in enumerate(tokens):
            if tok.value == "{":
                scopes.append(self.opens_namespace(tokens, i))
            elif tok.value == "}":
                if scopes:
                    scopes.pop()
            elif (tok.value == "using" and i + 1 < len(tokens) and
                  tokens[i + 1].value == "namespace" and all(scopes)):
                if ctx.lexed.allow(self.name, tok.line):
                    continue
                findings.append(Finding(
                    ctx.lexed.path, tok.line, self.name,
                    "namespace-scope `using namespace` in a header leaks "
                    "into every includer"))
        return findings


ALL_RULES = [RuleD1(), RuleD2(), RuleD3(), RuleD4(), RuleD5(), RuleD6(),
             RuleD7(), RuleH1(), RuleH2()]


# --------------------------------------------------------------------------
# File discovery and driver
# --------------------------------------------------------------------------

SOURCE_DIRS = ("src", "bench", "tests")
SOURCE_EXTS = (".h", ".cc", ".cpp", ".cxx", ".hpp")


def discover_files(root: str, build_dir: str | None) -> list:
    """Root-relative source paths: compile_commands TUs when available,
    plus every header/source under the conventional dirs."""
    found = set()
    if build_dir:
        cc_path = os.path.join(build_dir, "compile_commands.json")
        if os.path.isfile(cc_path):
            with open(cc_path, encoding="utf-8") as fh:
                for entry in json.load(fh):
                    file = os.path.normpath(
                        os.path.join(entry.get("directory", ""), entry["file"]))
                    rel = os.path.relpath(file, root)
                    if not rel.startswith(".."):
                        found.add(rel.replace(os.sep, "/"))
    for top in SOURCE_DIRS:
        top_path = os.path.join(root, top)
        for dirpath, _dirnames, filenames in os.walk(top_path):
            for name in filenames:
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    found.add(rel.replace(os.sep, "/"))
    return sorted(found)


def paired_header(path: str, files: set) -> str | None:
    if path.endswith(".cc"):
        candidate = path[:-3] + ".h"
        if candidate in files:
            return candidate
    return None


def run(root: str, build_dir: str | None, rule_names: list,
        only_paths: list) -> tuple:
    """Returns (findings, suppressions_used, reasonless_suppressions)."""
    rules = [r for r in ALL_RULES if r.name in rule_names]
    files = discover_files(root, build_dir)
    file_set = set(files)
    if only_paths:
        norm = [p.rstrip("/").replace(os.sep, "/") for p in only_paths]
        files = [f for f in files
                 if any(f == p or f.startswith(p + "/") for p in norm)]

    lexed_cache: dict = {}

    def lexed_for(rel: str) -> LexedFile:
        if rel not in lexed_cache:
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as fh:
                lexed_cache[rel] = lex(rel, fh.read())
        return lexed_cache[rel]

    findings = []
    analyzed = []
    for rel in files:
        lexed = lexed_for(rel)
        decls = scan_container_decls(lexed.tokens)
        pair = paired_header(rel, file_set)
        if pair:
            # Member declarations live in the class header; fold them in so
            # `for (auto& [k, v] : member_)` resolves in the .cc.
            header_decls = scan_container_decls(lexed_for(pair).tokens)
            decls = {**header_decls, **decls}
        ctx = FileContext(lexed, decls)
        analyzed.append(lexed)
        for rule in rules:
            if rule.applies(rel):
                findings.extend(rule.check(ctx))

    used = [s for lexed in analyzed for s in lexed.suppressions if s.used]
    reasonless = [
        Finding(lexed.path, s.comment_line, "SUP",
                f"suppression allow({','.join(s.rules)}) carries no reason "
                "string; every suppression must explain itself")
        for lexed in analyzed for s in lexed.suppressions
        if s.used and not s.reason
    ]
    findings.extend(reasonless)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, used, reasonless


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="turtlint", description=__doc__.split("\n", 1)[0])
    parser.add_argument("paths", nargs="*",
                        help="restrict analysis to these root-relative paths")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir containing compile_commands.json "
                             "(default: ./build when present)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: auto-detect from this "
                             "script's location)")
    parser.add_argument("--rules", default=",".join(r.name for r in ALL_RULES),
                        help="comma-separated rule subset, e.g. D2,D5")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line (findings only)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name}  {rule.doc}")
        return 0

    root = args.root
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
    build_dir = args.build_dir
    if build_dir is None:
        default_build = os.path.join(root, "build")
        if os.path.isfile(os.path.join(default_build, "compile_commands.json")):
            build_dir = default_build

    rule_names = [r.strip().upper() for r in args.rules.split(",") if r.strip()]
    known = {r.name for r in ALL_RULES}
    unknown = [r for r in rule_names if r not in known]
    if unknown:
        print(f"turtlint: unknown rule(s) {','.join(unknown)} "
              f"(known: {','.join(sorted(known))})", file=sys.stderr)
        return 2

    findings, used, reasonless = run(root, build_dir, rule_names, args.paths)
    for finding in findings:
        print(finding.render())
    if not args.quiet:
        print(f"turtlint: {len(findings)} finding(s), "
              f"{len(used) - len(reasonless)} suppression(s) with reasons, "
              f"{len(reasonless)} without")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
