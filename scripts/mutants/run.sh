#!/bin/sh
# run.sh [TREE] runs the mutant catalog against the tests of TREE (by
# default this repository). Each *.patch beside it is one deliberate
# fault in a source file: its header says what the fault is, the source
# it mutates, the package whose tests must notice ("# Package:") and a
# -run pattern of the tests expected to fail ("# Kill:"); the diff
# follows. In a copy of TREE in a temporary directory, each patch is
# applied, the package's test binary built, the named tests run with a
# timeout, and the patch taken out again. The catalog fails if a patch
# no longer applies, a mutant does not build, or a mutant survives (its
# named tests all pass). A patch that no longer applies is re-based on
# the edited source, not dropped.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
tree=$(cd "${1:-$here/../..}" && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
(cd "$tree" && tar --exclude=./.git --exclude=./.bench_build -cf - .) | (cd "$work/tree" && tar xf -)
cd "$work/tree"

fail=0
for patch in "$here"/*.patch; do
	name=$(basename "$patch" .patch)
	pkg=$(sed -n 's/^# Package: //p' "$patch")
	kill=$(sed -n 's/^# Kill: //p' "$patch")
	if ! git apply "$patch" 2>"$work/log"; then
		echo "$name: FAIL, the patch no longer applies"
		cat "$work/log"
		fail=1
		continue
	fi
	if ! go test -vet=off -c -o "$work/mutant.test" "$pkg" >"$work/log" 2>&1; then
		echo "$name: FAIL, the mutant does not build"
		cat "$work/log"
		fail=1
	elif (cd "$pkg" && "$work/mutant.test" -test.run "$kill" -test.count=1 -test.failfast -test.timeout 60s) >"$work/log" 2>&1; then
		echo "$name: FAIL, survived $kill"
		fail=1
	else
		by=$(sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' "$work/log" | head -n 1)
		echo "$name: killed by ${by:-a crash or timeout}"
	fi
	git apply -R "$patch"
done
exit $fail
