# Sourced by CI's serve-smoke steps.
#
# after_completed <out> <command> <first line> <more lines...>
#
# Runs <command> (word-split: a function or binary and its flags) with
# its stdin on a FIFO and its stdout in <out>, writes <first line>, waits
# until a `completed` line is in <out> (at most 60 s), then writes the
# other lines and a shutdown, and returns the command's exit status. A
# repeat among the other lines then reaches a service whose cache
# already holds its twin's result: it is a submit-time hit.
after_completed() {
  out=$1 command=$2 first=$3
  shift 3
  rm -f requests.fifo
  mkfifo requests.fifo
  $command < requests.fifo > "$out" &
  server=$!
  exec 3> requests.fifo
  printf '%s\n' "$first" >&3
  for _ in $(seq 300); do
    grep -q '"type":"completed"' "$out" && break
    sleep 0.2
  done
  printf '%s\n' "$@" '{"proto":1,"op":"shutdown"}' >&3
  exec 3>&-
  rm -f requests.fifo
  wait "$server"
}
