#!/usr/bin/env bash
# The CLI output pins: each step runs the CLI on a generated or fixture
# input and checks the report lines or the sha256 of what it writes.
#
# Usage: tests/ci_pins.sh DIR
#
# DIR (it must exist) receives the files the steps write.  The steps run
# from the repository root, with `python` from PATH and the package from
# src/.  The script stops at the first failing check, with a non-zero exit.
set -eo pipefail

if [ "$#" -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
tmp=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

step() {
  printf '== %s\n' "$1"
}

step 'Oracle on the (2,2,2) witness'
out=$(PYTHONPATH=src python -m hubmin generate --family witness222 | PYTHONPATH=src python -m hubmin oracle -i -)
echo "$out"
grep -qx "minimum hubs: 12" <<< "$out"

step 'Oracle on a 13-free-edge random input and a cut above its demand'
# Pins the stable report lines (elapsed varies) and the written
# subgraph; in the fixture, one pair's cut is 3 and its demand 2.
PYTHONPATH=src python -m hubmin generate --family random --demands 2,2 --seed 0 --extra 8 \
  | PYTHONPATH=src python -m hubmin oracle -i - -o "$tmp/rand13.min.json" > "$tmp/rand13.out"
PYTHONPATH=src python -m hubmin oracle -i fixtures/oracle_cut_above_demand.json \
  -o "$tmp/above.min.json" > "$tmp/above.out"
cat "$tmp/rand13.out" "$tmp/above.out"
printf 'minimum hubs: 2\nbound for demands: 8\nminimal subgraphs: 11\n' \
  | diff - <(grep -v '^elapsed: ' "$tmp/rand13.out")
printf 'minimum hubs: 2\nbound for demands: 8\nminimal subgraphs: 18\n' \
  | diff - <(grep -v '^elapsed: ' "$tmp/above.out")
sha256sum -c <<EOF
388711ffa4ca200aa3ea0e8d8e0be6a3787b71de610f07ca395472385ac7a1e0  $tmp/rand13.min.json
ca2f801fd0dec040f1191740d15241cbc091c9a120cf8aa4be560ee4803416c9  $tmp/above.min.json
EOF

step 'Oracle on a 23-edge random input'
# The largest oracle input CI pins; stable report lines and the
# written subgraph.
PYTHONPATH=src python -m hubmin generate --family random --demands 2,2 --seed 0 --extra 10 \
  | PYTHONPATH=src python -m hubmin oracle -i - -o "$tmp/rand23.min.json" > "$tmp/rand23.out"
cat "$tmp/rand23.out"
printf 'minimum hubs: 2\nbound for demands: 8\nminimal subgraphs: 14\n' \
  | diff - <(grep -v '^elapsed: ' "$tmp/rand23.out")
sha256sum -c <<EOF
388711ffa4ca200aa3ea0e8d8e0be6a3787b71de610f07ca395472385ac7a1e0  $tmp/rand23.min.json
EOF

step 'Minimality of the 12x12 lattice'
out=$(PYTHONPATH=src python -m hubmin generate --family grid --c1 12 --c2 12 | PYTHONPATH=src python -m hubmin check -i -)
echo "$out"
grep -qx "minimal: True" <<< "$out"

step 'Theorem 1 agreement on the consistent-cycle fixture'
# A minimal input on which the cycle search once found a cycle that
# no rerouting can use.
out=$(PYTHONPATH=src python -m hubmin check -i fixtures/theorem1_cycle.json)
echo "$out"
grep -qx "two-pair characterizations: minimal=True non-reroutable=True no-consistent-cycle=True agree=True" <<< "$out"

step 'Canonical writer matches json.tool'
# An independent check that the instance writer is canonical JSON.
PYTHONPATH=src python -m hubmin generate --family grid --c1 16 --c2 16 > "$tmp/grid16.json"
python -m json.tool --indent 2 --sort-keys "$tmp/grid16.json" > "$tmp/grid16.tool.json"
cmp "$tmp/grid16.json" "$tmp/grid16.tool.json"

step 'Interconnect trace of a shuffled 6x6 lattice'
# Pins the trace and the report byte for byte; switches occur in both phases.
PYTHONPATH=src python -m hubmin generate --family grid --c1 6 --c2 6 \
  | PYTHONPATH=src python -m hubmin interconnect -i - --shuffle --seed 2 \
    --trace "$tmp/t.jsonl" > "$tmp/t.out"
sha256sum -c <<EOF
43af0e9279b55342be7bc67ceb90bfc7b8a7f2c541d11d75e705abbc248319a4  $tmp/t.jsonl
7c126f86cbcece47f7e75ba45e911c1bce8b93015bd528ebd9e066a44c4c19da  $tmp/t.out
EOF

step 'Representation and interconnect of the 16x16 lattice'
# The largest lattice the lattice-represent workload times; pins the
# representation's stdout and stderr, the run report and its trace.
PYTHONPATH=src python -m hubmin generate --family grid --c1 16 --c2 16 \
  | PYTHONPATH=src python -m hubmin represent -i - \
    > "$tmp/r16.out" 2> "$tmp/r16.err"
PYTHONPATH=src python -m hubmin generate --family grid --c1 16 --c2 16 \
  | PYTHONPATH=src python -m hubmin interconnect -i - \
    --trace "$tmp/i16.jsonl" > "$tmp/i16.out"
sha256sum -c <<EOF
cfd03416c8343ff0c9c609120adfab4235695b41543b0c07d389ba24ba7edd50  $tmp/r16.out
709d34650196dd1c699eadcff5628507ead142bdbba34df2c924955873b5f356  $tmp/r16.err
021ff0d49df0abbfe0b2c12e8f452f26efd0ea0ce27c946f23f62dac0ffb341e  $tmp/i16.jsonl
01b7b98fd24c6b4431bbff210f096368ee6db7f7b3f00700b270825b9b258608  $tmp/i16.out
EOF

step 'Representation and interconnect of a minimalized random input'
# On a lattice all three rewrites do nothing; on this input the
# representation merges a relay, stretches two crossings and swaps
# one opposed public edge, and every run check passes.
PYTHONPATH=src python -m hubmin generate --family random --demands 3,3 --seed 35 --extra 4 \
  > "$tmp/r.json"
PYTHONPATH=src python -m hubmin minimalize -i "$tmp/r.json" -o "$tmp/m.json" \
  2> "$tmp/m.err"
PYTHONPATH=src python -m hubmin represent -i "$tmp/m.json" \
  > "$tmp/rep.out" 2> "$tmp/rep.err"
PYTHONPATH=src python -m hubmin interconnect -i "$tmp/m.json" \
  --trace "$tmp/t.jsonl" > "$tmp/ic.out"
sha256sum -c <<EOF
e55cfebb5c5c250b366c13a08c10a9516a973cded88b43460deaa17aba2d3891  $tmp/r.json
7299cc987e147b8538cc0619aad246d1f35e83e45dafa9fb9c664d13fd5e09b1  $tmp/m.json
1f545b672bbd66a2b5444567ecd08c2d690353e912aca50cfa1c5c482c882a38  $tmp/m.err
d4ab454661832e7d91fd993f3633ce89f316e0377acfac0ab68df886db930d88  $tmp/rep.out
735b2e45fbd358a6bbdf77c945a7aec8b02f9dac16ac7ebe71299d7c3395dc10  $tmp/rep.err
b4e895ea0b1431a7e246529eee39cc94f745bf364644b77704d4692e624ea50b  $tmp/ic.out
2d504e9f0844c9e01bd4412ad4e060cc0c4f440876bc7f27547ec65cc400ca88  $tmp/t.jsonl
EOF

step 'Representation of a lattice without systems'
# The systems key is stripped, so represent computes each pair's
# system itself, with each flow stopped at the pair's demand; pins
# stdout, stderr and the written representation.
PYTHONPATH=src python -m hubmin generate --family grid --c1 5 --c2 4 \
  | python -c 'import json, sys; d = json.load(sys.stdin); del d["systems"]; json.dump(d, sys.stdout)' \
  > "$tmp/g54.json"
PYTHONPATH=src python -m hubmin represent -i "$tmp/g54.json" -o "$tmp/g54.rep.json" \
  > "$tmp/g54.out" 2> "$tmp/g54.err"
sha256sum -c <<EOF
fec652731c963d21f13ccb8c91b3b93ae8c8e6a030dcab4924d8fed16cbe0195  $tmp/g54.json
e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855  $tmp/g54.out
a9d11efdcf18d7dd5876e2a59c29082622c98950cf7b9d41aa552c131bf4272f  $tmp/g54.err
26a486d6a237ed62414d5b94d2cb137d48118906c3fff4deaf34fa4e12520444  $tmp/g54.rep.json
EOF

step 'Reroutable witness through generate, check and minimalize'
# Covers the CLI's computed systems and the three-pair is_minimal path;
# the witness is minimal, so minimalize writes the generated file back.
PYTHONPATH=src python -m hubmin generate --family reroutable > "$tmp/rr.json"
PYTHONPATH=src python -m hubmin check -i "$tmp/rr.json" > "$tmp/rr.check"
PYTHONPATH=src python -m hubmin minimalize -i "$tmp/rr.json" -o "$tmp/rr.min.json"
sha256sum -c <<EOF
d6c44c1f478d990d457c647170e0f0afa6d5cf6da05cd25edbfd8797aaf43356  $tmp/rr.json
26f80350d984d1976d5d98ea0d4ff1e33566fc0912ac026a15945a5a4b393360  $tmp/rr.check
d6c44c1f478d990d457c647170e0f0afa6d5cf6da05cd25edbfd8797aaf43356  $tmp/rr.min.json
EOF

step 'Minimality checks on a five-pair lattice and a non-minimal random input'
# Pins the check report where is_minimal asks more than two pairs
# (minimal: True) and where edges are deletable (minimal: False, a
# reroutable system).
PYTHONPATH=src python -m hubmin generate --family ones --c1 4 --c2 4 --n 3 \
  | PYTHONPATH=src python -m hubmin check -i - > "$tmp/ones443.check"
PYTHONPATH=src python -m hubmin generate --family random --demands 2,3 --seed 2 --extra 4 \
  | PYTHONPATH=src python -m hubmin check -i - > "$tmp/random23.check"
sha256sum -c <<EOF
67cd9f91e74bd9e669385f55349e439e9cb7433195b1296ccf8b269fdaa3e72e  $tmp/ones443.check
44f338dc056b245df17cd69c02fc4fe5f156ede3af362535ee19823d52fe74ae  $tmp/random23.check
EOF

step 'Check and minimalize where one source has more edges than its demand'
# Pair 0's source has 3 edges for demand 2; every other terminal is
# tight (exactly demand edges), so only some terminals settle their
# own edges.  The source's spare edge lies on no system, so the
# two-pair characterizations need not agree, and here they do not.
PYTHONPATH=src python -m hubmin check -i fixtures/loose_source.json > "$tmp/loose.check"
PYTHONPATH=src python -m hubmin minimalize -i fixtures/loose_source.json \
  -o "$tmp/loose.min.json" 2> "$tmp/loose.min.err"
sha256sum -c <<EOF
7cea226d13e22254fecdafa7d78ca698bcc4fa3951a1602b69b0807e5eaca430  $tmp/loose.check
9fb0d36ba684a9535b37675218a0377bbf8e71f18ec770f8252b7984eb5d57a8  $tmp/loose.min.json
a142ce5801d7c9c635fd6c43163de9c1a5159c0b03e83d970236a33b56bd4db0  $tmp/loose.min.err
EOF
