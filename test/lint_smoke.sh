#!/bin/sh
# Smoke test for the cc_lint CI gate: stage the planted-violation corpus
# (test/corpus/**.cml) into a scratch tree, run the full linter, and check
# that the gate (a) fails with the expected rules on the corpus and (b)
# passes on the shipped tree.
#
# Usage: test/lint_smoke.sh [path-to-cc_lint-binary]
set -eu

repo_root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
lint=${1:-"$repo_root/_build/default/bin/cc_lint.exe"}
# The linter runs from inside the staging directory below, so a relative
# path is resolved against the caller's directory first.
case $lint in
  /*) ;;
  *) lint="$PWD/$lint" ;;
esac
if [ ! -x "$lint" ]; then
  echo "lint_smoke: $lint not built (run: dune build bin/cc_lint.exe)" >&2
  exit 2
fi

stage=$(mktemp -d)
trap 'rm -rf "$stage"' EXIT INT TERM

# Stage every corpus file, swapping the compile-shielding .cml extension
# back to .ml so the linter's walker picks them up under their intended
# lib/<layer>/ paths.
(cd "$repo_root/test/corpus" && find . -name '*.cml' -print) |
while read -r f; do
  dst="$stage/${f%.cml}.ml"
  mkdir -p "$(dirname "$dst")"
  cp "$repo_root/test/corpus/$f" "$dst"
done

out="$stage/findings.txt"
status=0
(cd "$stage" && "$lint" lib) >"$out" 2>&1 || status=$?

fail() {
  echo "lint_smoke: FAIL: $1" >&2
  echo "--- linter output ---" >&2
  cat "$out" >&2
  exit 1
}

[ "$status" -eq 1 ] || fail "expected exit 1 on the corpus, got $status"
grep -q ' L10 ' "$out" || fail "missing L10 finding"
grep -q ' L11 ' "$out" || fail "missing L11 finding"
grep -q ' L12 ' "$out" || fail "missing L12 finding"
grep -q ' L2 ' "$out" || fail "missing L2 finding (per-file rules not run?)"
grep -q ' L9 ' "$out" || fail "missing L9 finding (raw socket I/O outside lib/wire)"
grep -q ' L13 ' "$out" || fail "missing L13 finding (supervision bypass)"
grep -q ' L14 ' "$out" || fail "missing L14 finding (unchecked access outside lib/linalg)"
grep -q 'Planted_l10.choose -> Entropy_pool.draw -> Random.int' "$out" ||
  fail "L10 chain does not name every hop"

# The corpus must also round-trip through the JSON emitter (exit 1 still).
jstatus=0
(cd "$stage" && "$lint" --json lib) >"$stage/findings.json" 2>/dev/null ||
  jstatus=$?
[ "$jstatus" -eq 1 ] || fail "expected exit 1 from --json on the corpus, got $jstatus"
grep -q '"cc-lint/1"' "$stage/findings.json" || fail "JSON output lacks schema tag"

# The shipped tree must stay clean under the same gate.
(cd "$repo_root" && "$lint" lib bin bench test examples) >"$out" 2>&1 ||
  fail "shipped tree is not clean"

echo "lint_smoke: OK"
