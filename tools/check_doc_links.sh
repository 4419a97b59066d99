#!/usr/bin/env bash
# Intra-repo link checker for the documentation set.
#
# Scans README.md and docs/*.md for
#   1. markdown links  [text](target)   — resolved relative to the file,
#   2. backticked repo paths  `docs/FAULTS.md`, `src/sim/event_queue.{h,cc}`,
#      `bench/throughput` (binary: accepted when the .cc source exists)
#      — resolved relative to the repo root, then the referencing file,
# and fails (exit 1) listing every target that does not exist in the
# checkout. External links (http/https/mailto), pure #anchors, and
# `<placeholder>` paths are skipped; a #fragment on a local target is
# stripped before the check.
#
# Runs with no build and no network: CI's docs job and `ctest -R DocLinks`
# both call it, and tools/check.sh runs it locally.

set -u

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

files=(README.md docs/*.md)

errors=0

# expand_braces "src/a.{h,cc}" -> "src/a.h src/a.cc" (single group only,
# which is the only form the docs use).
expand_braces() {
  local path=$1
  if [[ "$path" == *"{"*"}"* ]]; then
    local prefix=${path%%\{*}
    local rest=${path#*\{}
    local group=${rest%%\}*}
    local suffix=${rest#*\}}
    local alt
    IFS=',' read -ra alts <<< "$group"
    for alt in "${alts[@]}"; do
      printf '%s\n' "${prefix}${alt}${suffix}"
    done
  else
    printf '%s\n' "$path"
  fi
}

# True when some interpretation of the path exists: as written, as a
# built binary's source (`bench/throughput` -> bench/throughput.cc), or —
# second argument set — relative to the referencing file's directory.
resolves() {  # path, dir
  local candidate
  for candidate in "$1" "$1.cc" "$1.h" "$2/$1"; do
    [ -e "$candidate" ] && return 0
  done
  return 1
}

check_span() {  # file, dir, raw span
  local candidate ok=1
  while IFS= read -r candidate; do
    resolves "$candidate" "$2" || ok=0
  done < <(expand_braces "$3")
  if [ "$ok" -eq 0 ]; then
    echo "BROKEN: $1 -> $3" >&2
    errors=$((errors + 1))
  fi
}

for f in "${files[@]}"; do
  dir=$(dirname "$f")

  # --- markdown links -----------------------------------------------------
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*|'') continue ;;
    esac
    target_nofrag=${target%%#*}
    [ -n "$target_nofrag" ] || continue
    check_span "$f" "$dir" "$dir/$target_nofrag"
  done < <(grep -o '\[[^]]*\]([^)]*)' "$f" | sed 's/^\[[^]]*\](//; s/)$//')

  # --- backticked repo paths ---------------------------------------------
  # Only spans that look like checked-in paths: a known top-level directory
  # or a .md / Doxyfile reference. Command lines, flags, metric names,
  # key=value examples, and <placeholder> paths never match.
  while IFS= read -r span; do
    case "$span" in
      *' '*|*'='*|*'--'*|*'*'*|*'<'*|*'>'*) continue ;;  # prose/globs/flags
    esac
    case "$span" in
      src/*|docs/*|tools/*|bench/*|tests/*|examples/*|scenarios/*) : ;;
      *.md|Doxyfile) : ;;
      *) continue ;;
    esac
    check_span "$f" "$dir" "$span"
  done < <(grep -o '`[^`]*`' "$f" | sed 's/^`//; s/`$//')
done

if [ "$errors" -gt 0 ]; then
  echo "check_doc_links: $errors broken reference(s)" >&2
  exit 1
fi
echo "check_doc_links: OK (${#files[@]} files)"
