#!/usr/bin/env bash
# Reachability sweep: lists every `pub` / `pub(crate)` fn, struct, enum,
# const and type defined under crates/*/src whose name appears in no other
# code of the repository.
#
# Usage: scripts/reachability.sh   (from any directory)
#
# An item is reported when its name, as a whole identifier, occurs nowhere
# in the code below except on its own definition line:
#   crates/*/src, src/, examples/, crates/*/examples, crates/bench/benches,
#   crates/*/tests, tests/ and benchmark/src (read only, never edited).
# Comments (doc comments and their examples included), the contents of
# string and char literals, and every `#[cfg(test)]` item are not code for
# this purpose: a helper that only its own or another file's unit tests
# call is reported, and belongs in that test module. Items defined under
# `#[cfg(test)]` are never reported.
#
# The match is by name only, so an item whose name is also used for
# something else is not reported; the sweep can miss dead code, but what
# it reports is dead.
#
# Methods that share a name (`Matrix::push_row` and `ChunkedRows::push_row`
# count as one name here) need the typed report, run by hand with the
# nightly toolchain (a report, not a CI gate; CI's toolchain is stable):
#
#   for c in ides-linalg ides-netsim ides-datasets ides-mf ides \
#            ides-experiments ides-bench; do
#       cargo +nightly rustdoc -p "$c" --lib -- \
#           -Z unstable-options --output-format json
#   done
#
# Each target/doc/<crate>.json gives every `pub` item's path and span. List
# the inherent `pub` methods whose name another item also has, then settle
# each one with the compiler: make it `pub(crate)` and build every target
# of the workspace and of benchmark/. A use outside the crate fails to
# compile; a method no code of its own crate calls gets a dead_code
# warning. The finds that stay are the `# method:` lines at the end of
# scripts/reachability.allow, each with its reason.
#
# scripts/reachability.allow lists the finds that stay, one per line:
# `<name> <reason>`, where the name is the item's or, to allow every find in
# one file, the file's path. Blank lines and lines starting with `#` are
# ignored. The script prints every other find and exits 1 if there is one;
# an allow-list entry that matches no find is reported too, so the list
# cannot go stale.
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/reachability.allow

mapfile -t files < <(
    find crates/*/src src examples crates/*/examples crates/bench/benches \
        crates/*/tests tests benchmark/src -name '*.rs' 2>/dev/null | sort
)

# Pass 1: print each file's code as `path<TAB>line<TAB>text`, with comments,
# literal contents and `#[cfg(test)]` items blanked out. Line numbers are
# kept. Pass 2 (END) finds the definitions and counts identifier uses.
awk -v OFS='\t' -v q="'" '
function ident(ch) { return ch ~ /[A-Za-z0-9_]/ }
# Emits the code of one physical line, advancing the lexer state kept in
# the globals below across lines.
function lex(line,    i, n, c, nx, prev, out, j, h, close_) {
    n = length(line); out = ""; i = 1
    while (i <= n) {
        c = substr(line, i, 1); nx = substr(line, i + 1, 1)
        if (block > 0) {                       # inside /* ... */ (nests)
            if (c == "*" && nx == "/") { block--; i += 2; continue }
            if (c == "/" && nx == "*") { block++; i += 2; continue }
            i++; continue
        }
        if (instr) {                           # inside "..." or r#"..."#
            if (rawh < 0 && c == "\\") { i += 2; continue }
            if (c == "\"") {
                close_ = "\""; for (h = 0; h < rawh; h++) close_ = close_ "#"
                if (rawh < 0 || substr(line, i, length(close_)) == close_) {
                    instr = 0; out = out "\"\""
                    i += (rawh < 0 ? 1 : length(close_)); continue
                }
            }
            i++; continue
        }
        if (c == "/" && nx == "/") break
        if (!skipping && substr(line, i, 12) == "#[cfg(test)]") {
            # The attribute covers the next item, up to its closing brace
            # or, for a braceless item, its semicolon.
            pending = 1; i += 12; continue
        }
        if (c == "/" && nx == "*") { block = 1; i += 2; continue }
        if (c == "\"") { instr = 1; rawh = -1; i++; continue }
        # A raw string starts at an `r` that begins a token, or that
        # follows the `b` of a raw byte string.
        prev = substr(line, i - 1, 1)
        if (c == "r" && (nx == "#" || nx == "\"") &&
            (!ident(prev) || prev == "b" && !ident(substr(line, i - 2, 1)))) {
            j = i + 1; h = 0
            while (substr(line, j, 1) == "#") { j++; h++ }
            if (substr(line, j, 1) == "\"") { instr = 1; rawh = h; i = j + 1; continue }
        }
        if (c == q) {                     # char literal or lifetime
            if (nx == "\\") {
                j = index(substr(line, i + 3), q)
                if (j > 0) { i += 3 + j; out = out " "; continue }
            } else if (!ident(nx) || substr(line, i + 2, 1) == q) {
                j = index(substr(line, i + 1), q)
                if (j > 0) { i += 1 + j; out = out " "; continue }
            }
        }
        if (skipping) {
            if (c == "{") depth++
            if (c == "}" && --depth == skip_depth) skipping = 0
            i++; continue
        }
        if (pending) {
            if (c == "{") { skipping = 1; skip_depth = depth; depth++ }
            if (c == "{" || c == ";") pending = 0
            i++; continue
        }
        if (c == "{") depth++
        if (c == "}") depth--
        out = out c; i++
    }
    return out
}
FNR == 1 { block = 0; instr = 0; depth = 0; pending = 0; skipping = 0 }
{ print FILENAME, FNR, lex($0) }' "${files[@]}" |
awk -F '\t' -v allow="$allow" '
BEGIN {
    while ((getline entry < allow) > 0) {
        if (entry ~ /^[ \t]*(#|$)/) continue
        split(entry, f, /[ \t]+/); allowed[f[1]] = 1
    }
}
{
    text = $3
    if ($1 ~ /^crates\/[^\/]+\/src\// &&
        match(text, /^[ \t]*pub(\(crate\))?[ \t]+((const|async|unsafe)[ \t]+)*(fn|struct|enum|const|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        def = substr(text, RSTART, RLENGTH)
        sub(/^[ \t]*pub(\(crate\))?[ \t]+/, "", def)
        while (def ~ /^(const|async|unsafe)[ \t]+[a-z]+[ \t]/) sub(/^[a-z]+[ \t]+/, "", def)
        split(def, w, /[ \t]+/)
        defs++; def_file[defs] = $1; def_line[defs] = $2; def_kind[defs] = w[1]; def_name[defs] = w[2]
        on_line[defs] = uses(text, w[2])
    }
    while (match(text, /[A-Za-z_][A-Za-z0-9_]*/)) {
        count[substr(text, RSTART, RLENGTH)]++
        text = substr(text, RSTART + RLENGTH)
    }
}
function uses(s, name,    n) {
    n = 0
    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
        if (substr(s, RSTART, RLENGTH) == name) n++
        s = substr(s, RSTART + RLENGTH)
    }
    return n
}
END {
    bad = 0
    for (d = 1; d <= defs; d++) {
        name = def_name[d]
        if (count[name] > on_line[d]) continue
        if (name in allowed) { used[name] = 1; continue }
        if (def_file[d] in allowed) { used[def_file[d]] = 1; continue }
        printf "%s:%s: unreachable %s %s\n", def_file[d], def_line[d], def_kind[d], name
        bad = 1
    }
    for (a in allowed) if (!(a in used)) {
        printf "%s: allow-list entry %s matches no find\n", allow, a
        bad = 1
    }
    exit bad
}'
