#!/usr/bin/env bash
# Kept mutations: each `*.patch` beside this script breaks the code on purpose,
# and the test named on its `Test:` line (arguments to `cargo test`) must fail
# against it. A mutation that survives means that test no longer guards what
# the patch breaks.
#
# Usage: tests/mutations/run.sh [name ...]
#
# With no names every patch runs; a name (the patch's file name, with or
# without `.patch`) runs only that patch.
#
# The tracked tree is copied once to a temporary directory; each patch is
# applied there, its test run, and the patch reverted, so the checkout itself
# is never modified. Set CARGO_TARGET_DIR to reuse a build directory. Exits
# non-zero if any mutation survives or any patch no longer applies.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
patches=()
if [ "$#" -eq 0 ]; then
    patches=("$root"/tests/mutations/*.patch)
else
    for name in "$@"; do
        patch="$root/tests/mutations/${name%.patch}.patch"
        if [ ! -f "$patch" ]; then
            echo "${name%.patch}: no such patch"
            exit 1
        fi
        patches+=("$patch")
    done
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -z | tar --null -T - -cf -) | tar -xf - -C "$work"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

status=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    args=$(sed -n 's/^Test: //p' "$patch")
    if [ -z "$args" ]; then
        echo "$name: no Test: line"
        status=1
        continue
    fi
    if ! (cd "$work" && git apply "$patch"); then
        echo "$name: no longer applies"
        status=1
        continue
    fi
    # A failed build is no kill: only a test that ran and failed counts.
    # shellcheck disable=SC2086 # the Test: line is a list of cargo arguments
    (cd "$work" && cargo test $args) >"$work/$name.log" 2>&1 || true
    if grep -q '^test result: FAILED' "$work/$name.log"; then
        echo "$name: killed"
    else
        echo "$name: SURVIVED (cargo test $args)"
        tail -n 20 "$work/$name.log"
        status=1
    fi
    (cd "$work" && git apply -R "$patch")
done
exit "$status"
