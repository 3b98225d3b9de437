#!/bin/sh
# Typed-fault lint, run on every `dune runtest`.
#
# The kernel ABI (lib/abi) makes every failure that can cross the API
# boundary a typed Sj_abi.Error.Fault. lib/core and lib/kernel sit
# behind that boundary, so they may not raise raw Failure /
# Invalid_argument: every `failwith`/`invalid_arg` there must instead
# be an Error.fail/failf with the right code. This grep keeps new ones
# from creeping in.
#
# Allowlist: empty. Lower-level mechanism libraries (lib/paging,
# lib/mem, lib/alloc, ...) keep their precondition checks — their
# callers in core/kernel translate at the boundary.
#
# That every fault code is reachable through the API is a typed check,
# not a grep: see the all-codes worlds in test/test_errors.ml.
set -u

hits=$(grep -rnE '\b(failwith|invalid_arg)\b' lib/core lib/kernel --include='*.ml' || true)

if [ -n "$hits" ]; then
  echo "lint_errors: raw failwith/invalid_arg in lib/core or lib/kernel (use Sj_abi.Error.fail):" >&2
  printf '%s\n' "$hits" >&2
  echo "Raise a typed fault (Sj_abi.Error.fail <code> ~op:... ...) instead; see HACKING.md." >&2
  exit 1
fi

echo "lint_errors: OK (no raw failwith/invalid_arg in lib/core or lib/kernel)"
