#!/usr/bin/env bash
# Checks both flag_digest lines of the NURD workloads on seeds 1-3 against
# their pinned values: the end-to-end oracle that a change to the boosting,
# histogram or scoring code left every straggler decision bit-identical.
# Each NURD run of benchmark/run.py prints two digests of every flag it made:
# the quality set's (one job set for every seed) and the timed phase's (the
# seed's own job set). Both depend only on the seed, not on the run length.
#
#   scripts/check_flag_digests.sh
#   CXXFLAGS=-mavx2 scripts/check_flag_digests.sh  # under -mavx2 codegen
#
# benchmark/run.py builds nurd_bench first, in $CARGO_TARGET_DIR (default
# .bench_build). CXXFLAGS reaches that build only when the directory is
# configured for the first time.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
expect_digests() {
  local out quality timed
  out=$(python3 benchmark/run.py --workload "$1" --seed "$2" --seconds 1)
  quality=$(printf '%s\n' "$out" |
    sed -n 's/^quality set:.* flag_digest \([0-9a-f]*\)$/\1/p')
  timed=$(printf '%s\n' "$out" | sed -n 's/^flag_digest \([0-9a-f]*\)$/\1/p')
  if [[ "$quality" != "$3" || "$timed" != "$4" ]]; then
    echo "$1 seed $2: flag_digest $quality / $timed, want $3 / $4"
    status=1
  else
    echo "$1 seed $2: flag_digest $quality / $timed ok"
  fi
}

expect_digests nurd-google-inc 1 e171cdfb090e2ff8 6d9146cf023245a4
expect_digests nurd-google-inc 2 e171cdfb090e2ff8 f6f9b01d497df692
expect_digests nurd-google-inc 3 e171cdfb090e2ff8 9080e3a72c6639ff
expect_digests nurd-alibaba-full 1 635fc71ca90d32f4 e3240af3ab504b6a
expect_digests nurd-alibaba-full 2 635fc71ca90d32f4 f0c5903ab10a74e9
expect_digests nurd-alibaba-full 3 635fc71ca90d32f4 ed81288829d3f841
exit "$status"
