#!/bin/sh
# Domain-safety lint, run on every `dune runtest`.
#
# Simulations must be runnable concurrently on separate OCaml domains
# with bit-identical results, so lib/ may not create process-global
# mutable state: every mutable container must hang off a Sim_ctx,
# machine, or env that the caller owns. This grep catches top-level
# bindings to the stdlib's mutable-container constructors.
#
# Deliberately NOT flagged: top-level `Mutex.create` and
# `Domain.DLS.new_key` — those are the domain-safety tools themselves.
# lib/obs is covered like everything else: recorders hang off a
# Sim_ctx and the only ambient state is the Domain.DLS tracing default.
# No allowlist entries for it.
#
# Allowlist (keep it at <= 2 entries; see HACKING.md before adding):
#   lib/util/rng.ml        zipf_tables — memo cache of harmonic tables;
#                          mutex-guarded, deterministic content.
#   lib/genomics/record.ml genomes — memo cache of synthetic reference
#                          sequences; mutex-guarded, deterministic.
set -u

hits=$(grep -rnE \
  '^let [a-zA-Z_0-9]+( *: *[^=]*)? *= *(ref |Hashtbl\.create|Buffer\.create|Queue\.create|Stack\.create|Array\.make|Bytes\.create|Atomic\.make)' \
  lib --include='*.ml' || true)

bad=$(printf '%s\n' "$hits" \
  | grep -vE '^lib/util/rng\.ml:[0-9]+:let zipf_tables ' \
  | grep -vE '^lib/genomics/record\.ml:[0-9]+:let genomes ' \
  | grep -v '^$' || true)

if [ -n "$bad" ]; then
  echo "lint_globals: top-level mutable state in lib/ (breaks domain parallelism):" >&2
  printf '%s\n' "$bad" >&2
  echo "Scope it in a Sim_ctx/machine/env, or (rarely) extend the allowlist in test/lint_globals.sh." >&2
  exit 1
fi

echo "lint_globals: OK (no process-global mutable state in lib/)"
