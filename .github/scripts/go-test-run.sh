#!/usr/bin/env bash
# go-test-run.sh 'TestA|TestB' pkg...: run the selected tests under the race
# detector, after checking that every alternative of the selection still names
# a test — a rename must not turn a dedicated suite into a step that passes by
# running nothing.
set -euo pipefail
sel=$1
shift
names=$(go test -list "$sel" "$@")
for pat in ${sel//|/ }; do
	if ! grep -q "^$pat" <<<"$names"; then
		echo "go-test-run: '$pat' matches no test in $*" >&2
		exit 1
	fi
done
exec go test -race -run "$sel" "$@"
