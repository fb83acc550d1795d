#!/usr/bin/env bash
# Reachability gate: src/ holds only code that a shipped binary runs. Every
# durassd function that the src/ libraries define must be linked into a
# bench, an example or perfbench, or be one of the roots listed below.
#
# Method. The benches, the examples and perfbench (from its own CMake
# project) are built into build-reach/ at -O0 with inlining off and one
# section per function, and linked with --gc-sections, so a binary keeps
# exactly the functions its main can call. NDEBUG is defined, as in the
# shipped builds, so a call inside an assert() reaches nothing. An empty
# main linked with one --undefined per root stands in for the callers the
# roots do not have yet. The script then lists every _ZN7durassd /
# _ZNK7durassd function symbol (T, W or t) of the src/ archives that no
# binary contains.
#
# Blind spot: an inline function that no src/ object emits (a header-only
# function that only tests call) has no symbol to compare, so it passes.
# To list those by hand, add -fkeep-inline-functions to FLAGS in a
# throwaway checkout and run the script there (about 2.5 min on 4 cores):
# every inline function is then emitted, and the output also lists test
# accessors and implicit constructors, which need reading one by one. It
# is not a gate.
#
# Usage, from anywhere in the repository:
#   scripts/check_reachable.sh
# Prints the demangled name of each unreached function and exits 1, or
# prints nothing and exits 0. A failed build prints its log and exits 2.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT=build-reach
FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections -DNDEBUG"
LDFLAGS="-Wl,--gc-sections"
JOBS="$(nproc)"

# Roots: kept in src/ although no shipped binary calls them yet. One per
# line: the mangled name, then the reason.
ROOTS="$(cat <<'EOF'
_ZN7durassd12CrashHarness3RunERKNS0_7OptionsE  the crash harness's entry point; the harness is test infrastructure in src/sim by design
_ZNK7durassd12CrashHarness7Options8ToStringB5cxx11Ev  the harness's repro line, printed for every failing scenario
_ZN7durassd12CrashHarness7Options10FromStringERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE  the harness's repro line, parsed back to rerun a scenario
_ZN7durassd8Database10set_tracerEPNS_6TracerE  attaches the tracer; ROADMAP item 5 gives it a bench consumer
_ZNK7durassd6Tracer11AppendJsonlEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE  the tracer's JSONL export, for the same consumer
_ZN7durassd12TieredDevice8ShutdownEl  the tier's half of the clean-shutdown contract (DESIGN.md section 7)
EOF
)"

mkdir -p "$OUT"

# build DIR SOURCE TARGET...: configures SOURCE into DIR and builds TARGETs.
build() {
  local dir="$1" src="$2"
  shift 2
  if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Reach \
           -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS="$LDFLAGS" &&
         cmake --build "$dir" -j "$JOBS" --target "$@"; } > "$dir.log" 2>&1
  then
    cat "$dir.log"
    exit 2
  fi
}

BENCHES="$(sed -n 's/^durassd_add_bench(\([a-z0-9_]*\))$/\1/p' bench/CMakeLists.txt)"
EXAMPLES="$(sed -n 's/^durassd_add_example(\([a-z0-9_]*\))$/\1/p' \
  examples/CMakeLists.txt)"
# shellcheck disable=SC2086  # One target per word.
build "$OUT/main" . $BENCHES $EXAMPLES
build "$OUT/perfbench" perfbench perfbench

LIBS="$(echo "$OUT"/main/src/*/libdurassd_*.a)"

CXX="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$OUT/main/CMakeCache.txt")"
echo 'int main() { return 0; }' > "$OUT/kept.cc"
# shellcheck disable=SC2046,SC2086
"$CXX" $FLAGS $LDFLAGS "$OUT/kept.cc" \
  $(echo "$ROOTS" | awk '{print "-Wl,--undefined=" $1}') \
  -Wl,--start-group $LIBS -Wl,--end-group -o "$OUT/kept"

BINARIES="$OUT/kept $OUT/perfbench/perfbench"
for b in $BENCHES; do BINARIES="$BINARIES $OUT/main/bench/$b"; done
for e in $EXAMPLES; do BINARIES="$BINARIES $OUT/main/examples/$e"; done

# Prints the sorted durassd function symbols that the given files define.
functions() {
  nm --defined-only "$@" |
    awk '$2 ~ /^[TWt]$/ && $3 ~ /^_ZNK?7durassd/ { print $3 }' | sort -u
}

# shellcheck disable=SC2086
UNREACHED="$(comm -23 <(functions $LIBS) <(functions $BINARIES) | c++filt)"
if [ -n "$UNREACHED" ]; then
  echo "$UNREACHED"
  exit 1
fi
