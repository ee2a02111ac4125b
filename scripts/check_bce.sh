#!/usr/bin/env bash
# Bounds-check gate for the mixer, ΣX and float-phase kernels. The inner
# loops of the butterflies' Go bodies (rxQuadGo, rxQuadLowGo,
# rxQuadMirrorGo, rxDuoGo, rxDuoMirrorGo — the fallback, the odd tail and
# the oracle of the AVX2 assembly), the entry points that dispatch
# between the two (rxQuad, rxQuadLow, rxQuadMirror, rxDuo, rxDuoMirror,
# the pair-pass walk rxQuadRange and the two-state sweep's revQuad,
# revQuadLow, revQuadMirror, revQuadChunk, whose sub-run loops hand
# equal-length re-slices to either body), the sweep's ΣX terms
# (sumXQuad, sumXQuadLow, sumXDuo, sumXQuadMirror, sumXDuoMirror — the Go
# path and the oracle of the fused assembly; the mirror forms run one
# index ascending, one descending, both held in range by the loop
# condition), the ΣX oracle (sumXPartial, sumXRun), the complex multiply
# the float stream kernel builds and applies its phases with (Mul and its
# Go bodies mulGo, scaleGo, behind State.MulRange and fillPhase in
# internal/qaoa), the un-phase folds (State.InnerImMulRange,
# State.InnerImMulIndexedRange), the phase separator's Go bodies and
# their dispatchers (PhaseFactors, phaseFactorsGo, mulIndexedRange,
# mulIndexedGo) and the kernel builders' term-by-term table sums
# (addTerm, addRuns) iterate equal-length sub-slices so the compiler can
# drop every per-element index check; a refactor that brings one back
# costs 10–20 % of a Go-body sweep without failing any test. So do
# linalg.Cholesky's two dot products over rows of L, which a GPR bank
# runs once per grid point. This asks the compiler (ssa/check_bce) which
# checks survive in the three packages and fails if an IsInBounds falls
# inside one of those functions — more than N of them for an entry
# written fn:N. The gather keeps its one: mulIndexedGo's factors[k],
# which is what panics on an index outside the factor table, and which
# mulIndexedRange carries too by inlining mulIndexedGo; the indexed
# un-phase fold keeps vals[k], its own read of the same index, which
# panics before either state is written. Cholesky keeps four, each once
# per row or column and outside the dot loops: A's diagonal and
# sub-diagonal reads and L's two stores. IsSliceInBounds — the
# once-per-run re-slicing in front of each loop — is expected, and so
# are the IsInBounds of rx_amd64.go's *Vec steps: one per pointer handed
# to the assembly, once per call, the check that makes a short slice
# panic in Go.
# CI runs this; locally: scripts/check_bce.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# package directory → functions (a method is listed by its bare name).
check() {
  local dir="$1" funcs="$2" report entry fn allowed loc file start end hits clean=1
  # The compiler's diagnostics are cached and replayed with the build, so
  # a warm cache reports the same lines as a cold one.
  report="$(go build -gcflags='-d=ssa/check_bce/debug=1' "./$dir/" 2>&1 | grep 'Found IsInBounds' || true)"
  for entry in $funcs; do
    fn="${entry%%:*}" allowed=0
    [ "$fn" = "$entry" ] || allowed="${entry#*:}"
    loc="$(grep -nE "^func (\([^)]*\) )?$fn[[(]" "$dir"/*.go | grep -v _test.go || true)"
    if [ "$(printf '%s\n' "$loc" | grep -c .)" != 1 ]; then
      echo "check_bce: expected exactly one definition of $fn in $dir, found: ${loc:-none}" >&2
      exit 1
    fi
    file="${loc%%:*}"
    start="$(printf '%s' "$loc" | cut -d: -f2)"
    # A top-level function ends at the first line that is exactly "}".
    end="$(awk -v s="$start" 'NR > s && /^}$/ { print NR; exit }' "$file")"
    hits="$(printf '%s\n' "$report" | awk -F: -v f="$file" -v s="$start" -v e="$end" '$1 == f && $2 >= s && $2 <= e')"
    if [ "$(printf '%s' "$hits" | grep -c .)" -gt "$allowed" ]; then
      echo "check_bce: more than $allowed bounds checks inside $fn ($file:$start-$end):" >&2
      printf '%s\n' "$hits" >&2
      bad=1 clean=0
    fi
  done
  [ "$clean" = 0 ] || echo "check_bce: no IsInBounds beyond the allowance in $dir: $funcs"
}

bad=0
check internal/quantum 'rxQuad rxQuadGo rxQuadLow rxQuadLowGo rxQuadMirror rxQuadMirrorGo rxQuadRange rxDuo rxDuoGo rxDuoMirror rxDuoMirrorGo revQuad revQuadLow revQuadMirror revQuadChunk sumXQuad sumXQuadLow sumXDuo sumXQuadMirror sumXDuoMirror sumXPartial sumXRun Mul mulGo scaleGo MulRange InnerImMulRange InnerImMulIndexedRange:1 PhaseFactors phaseFactorsGo mulIndexedRange:1 mulIndexedGo:1'
check internal/qaoa 'addTerm addRuns'
check internal/linalg 'Cholesky:4'
exit "$bad"
