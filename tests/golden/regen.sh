#!/bin/sh
# Golden outputs: tool output with no wall-clock fields, pinned byte for
# byte by the *-golden ctest entries.
#
#   tests/golden/regen.sh BUILD_DIR         rewrite every tests/golden/*.txt
#   tests/golden/regen.sh BUILD_DIR NAME    print golden output NAME
#
# NAME is one of:
#   MitigationBench   `MitigationBench --threads 1`
#   sctcheck-kocher   `sctcheck FILE --minimize-witnesses --threads 1` for
#                     every `KocherBench --dump-asm` file, first with the
#                     default options and then with `--bound 250 --no-fwd`;
#                     the explored line's "in N s" is masked.
#
# Regenerate only for an intended change, and say in CHANGES.md which
# lines moved and why.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BUILD_DIR [MitigationBench|sctcheck-kocher]" >&2
  exit 2
fi
Build=$(cd "$1" && pwd)
Golden=$(cd "$(dirname "$0")" && pwd)

mitigation_bench() {
  "$Build/MitigationBench" --threads 1
}

sctcheck_kocher() {
  Dir=$(mktemp -d)
  "$Build/KocherBench" --dump-asm "$Dir" > /dev/null
  for Mode in "" "--bound 250 --no-fwd"; do
    for File in $(cd "$Dir" && ls -- *.sct | LC_ALL=C sort); do
      echo "== sctcheck $File --minimize-witnesses --threads 1${Mode:+ $Mode}"
      Rc=0
      # $Mode is unquoted on purpose: it splits into separate flags.
      (cd "$Dir" && "$Build/sctcheck" "$File" --minimize-witnesses \
        --threads 1 $Mode) > "$Dir/out" 2>&1 || Rc=$?
      sed -E 's/ in [0-9.]+s / in N s /' "$Dir/out"
      echo "== exit $Rc"
    done
  done
  rm -rf "$Dir"
}

case "${2:-}" in
MitigationBench) mitigation_bench ;;
sctcheck-kocher) sctcheck_kocher ;;
"")
  mitigation_bench > "$Golden/MitigationBench.txt"
  sctcheck_kocher > "$Golden/sctcheck-kocher.txt"
  ;;
*)
  echo "$0: unknown golden output '$2'" >&2
  exit 2
  ;;
esac
