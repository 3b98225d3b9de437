#!/bin/sh
# Fork-coverage lint, run on every `dune runtest`.
#
# The μFork subsystem (the kernel CoW machinery, measured by the fork
# experiment in lib/experiments/fork_spec.ml) makes two
# accounting promises that would rot silently if a refactor dropped a
# call site:
#
#   1. every fork syscall is COUNTED: vas_fork and proc_fork are real
#      ABI entries (numbered and named in lib/abi/sys.ml) and both API
#      entry points funnel through the counted dispatch helper, so the
#      syscall table and the event stream both see them (the explore
#      syscall-balance invariant then checks they agree);
#   2. every new observability event is EMITTED and ACCUMULATED: the
#      Fork and Cow_fault events exist, have stable wire names, are
#      emitted by the API/fault paths, and feed the forks / cow_faults
#      / cow_copies metrics the fork bench claims are measured.
set -u

sys=lib/abi/sys.ml
api=lib/core/api.ml
event=lib/obs/event.ml
metrics=lib/obs/metrics.ml
spec=lib/experiments/fork_spec.ml

for f in $sys $api $event $metrics $spec; do
  [ -f "$f" ] || {
    echo "lint_fork: $f not found (run from the repo root)" >&2
    exit 1
  }
done

fail() {
  echo "lint_fork: $1" >&2
  echo "See the Fork & CoW section of HACKING.md." >&2
  exit 1
}

# -- 1: the fork syscalls are counted ---------------------------------

for nr in Vas_fork Proc_fork; do
  grep -qE "\| $nr -> [0-9]+" "$sys" \
    || fail "$nr has no number in the ABI dispatch table ($sys)"
  grep -qE "\| $nr -> \"" "$sys" \
    || fail "$nr has no name in the ABI dispatch table ($sys)"
  # The API entry must go through the counted dispatch (`call ctx <nr>`),
  # which charges the syscall table and brackets enter/exit events.
  grep -qE "call ctx $nr" "$api" \
    || fail "$nr's API entry no longer funnels through the counted dispatch in $api"
done

# -- 2: the fork events are emitted and accumulated -------------------

for ev in Fork Cow_fault; do
  grep -qE "\| $ev (of|\{)" "$event" \
    || fail "event constructor $ev missing from $event"
  grep -qE "Event\.$ev" "$api" \
    || fail "event $ev is never emitted by $api"
done

# Stable wire names (trace files and jq recipes depend on them).
for name in proc_fork vas_fork cow_fault; do
  grep -q "\"$name\"" "$event" \
    || fail "event wire name \"$name\" missing from $event"
done

# The metrics accumulator consumes both events...
grep -qE "\| Fork _" "$metrics" \
  || fail "Metrics no longer accumulates Fork events ($metrics)"
grep -qE "\| Cow_fault" "$metrics" \
  || fail "Metrics no longer accumulates Cow_fault events ($metrics)"

# ...and the consumers the bench claims depend on still read them.
for m in forks cow_faults cow_copies; do
  grep -qE "Metrics\.$m" lib/kvstore/kv_fork.ml \
    || fail "the fork workload no longer reads Metrics.$m (lib/kvstore/kv_fork.ml)"
done
# The fork experiment still registers the CoW fault-storm claim, and
# the claim still reads the fault count.
grep -qE '"fault_storm_measured", fault_storm' "$spec" \
  || fail "the fork experiment no longer registers the CoW fault-storm claim ($spec)"
grep -qE 'cow_faults = 0' "$spec" \
  || fail "the fork experiment's fault-storm claim no longer reads cow_faults ($spec)"

# The explorer sweeps the fork entries (kill plans at the fork syscalls).
for nr in Vas_fork Proc_fork; do
  grep -qE "Sys\.$nr" lib/explore/explore.ml \
    || fail "the explore sweep no longer targets Sys.$nr (lib/explore/explore.ml)"
done

echo "lint_fork: OK (fork syscalls counted; Fork/Cow_fault emitted, accumulated and consumed)"
