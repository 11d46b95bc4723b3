#!/usr/bin/env bash
# Converts a git repository's history (for a set of paths) into the .vchist
# format the `valuecheck` CLI consumes, so real projects can run the full
# pipeline — authorship, cross-scope filtering, DOK ranking — without a
# libgit2 binding.
#
# usage: tools/git-to-vchist.sh <git-repo-dir> [pathspec...] > project.vchist
#
# Every commit that touches the pathspec becomes one vchist commit block with
# the post-commit content of each touched file. History is linearized in
# first-parent order. A merge whose first parent lies on its second parent's
# first-parent chain (a `git merge --no-ff` of a branch forked from the
# merge's first parent) gives way to that chain: the chain's commits follow
# oldest first, each block under its own author and time (a merge among them
# unfolds the same way), and then a block with the merge's own changes
# against its second parent, if it made any. Every other merge keeps one
# block under the merger's name that holds what the merge brought in: the
# files it changed against its first parent. Paths are read as git
# stores them, never quoted, so names with non-ASCII bytes or spaces
# convert as they are. Binary files and files over 1 MB are skipped. A file
# without a final newline gets one, as SaveHistory writes it, and a commit
# with an empty subject gets no `message` directive. Two things a vchist
# cannot hold make the tool fail, naming the commit and the path: a path
# with a newline or with leading or trailing whitespace, and a file with a
# line that reads `>>>` (surrounding whitespace aside), which would close
# its content block early.
set -euo pipefail

repo="${1:?usage: git-to-vchist.sh <git-repo-dir> [pathspec...]}"
shift
pathspec=("$@")
if [ "${#pathspec[@]}" -eq 0 ]; then
  pathspec=("*.c")
fi

git -C "$repo" rev-parse --git-dir > /dev/null
blob="$(mktemp)"
changes="$(mktemp)"
trap 'rm -f "$blob" "$changes"' EXIT

# Log lines of the commits emit_commits reads: the hash and the parents'
# hashes (space-separated: a root commit has none), author, time and subject,
# tab-separated.
format='%H %P%x09%an%x09%at%x09%s'

# Emits the block of commit $1 (author $3, time $4, subject $5) with the files
# it changed within the pathspec against commit $2, or against nothing when
# $2 is empty (a root commit). A commit that changed none emits nothing.
emit_block() {
  local sha="$1" base="$2" author="$3" time="$4" subject="$5"
  # NUL-terminated status and path fields. diff-tree detects no renames
  # here: a rename is a D row and an A row.
  if [ -n "$base" ]; then
    git -C "$repo" diff-tree --name-status -r -z "$base" "$sha" -- "${pathspec[@]}" > "$changes"
  else
    git -C "$repo" diff-tree --no-commit-id --name-status -r --root -z "$sha" \
        -- "${pathspec[@]}" > "$changes"
  fi
  if [ ! -s "$changes" ]; then
    return 0
  fi
  echo "commit"
  echo "author ${author}"
  echo "time ${time}"
  # vchist messages are single-line; strip tabs/newlines defensively. An
  # empty subject is no `message` directive, as SaveHistory writes it.
  subject="$(printf '%s' "$subject" | tr '\t\n' '  ')"
  if [ -n "${subject//[[:space:]]/}" ]; then
    echo "message ${subject}"
  fi
  local status path
  while IFS= read -r -d '' status && IFS= read -r -d '' path; do
    if [[ "$path" == *$'\n'* || "$path" =~ ^[[:space:]] || "$path" =~ [[:space:]]$ ]]; then
      echo "git-to-vchist.sh: commit ${sha}, ${path}: the path has a newline or" \
           "leading or trailing whitespace, which a vchist path cannot hold" >&2
      exit 1
    fi
    case "$status" in
      D)
        echo "delete ${path}"
        ;;
      *)
        # Skip binaries and megafiles.
        if git -C "$repo" cat-file -s "${sha}:${path}" 2>/dev/null |
           awk '{exit !($1 <= 1048576)}'; then
          git -C "$repo" show "${sha}:${path}" > "$blob"
          if grep -qI . "$blob"; then
            if grep -qE '^[[:space:]]*>>>[[:space:]]*$' "$blob"; then
              echo "git-to-vchist.sh: commit ${sha}, ${path}: a line reads '>>>'," \
                   "which would close its content block early" >&2
              exit 1
            fi
            echo "write ${path}"
            echo "<<<"
            cat "$blob"
            if [ -n "$(tail -c 1 "$blob")" ]; then
              echo  # the missing final newline
            fi
            echo ">>>"
          fi
        fi
        ;;
    esac
  done < "$changes"
  echo "end"
}

# Emits the commits of the log lines on stdin, oldest first, unfolding each
# merge whose first parent lies on its second parent's first-parent chain.
emit_commits() {
  local ids author time subject side base
  local -a id oldest
  while IFS=$'\t' read -r ids author time subject; do
    read -r -a id <<< "$ids"  # the commit, then its parents
    base="${id[1]:-}"
    if [ "${#id[@]}" -eq 3 ]; then
      side="$(git -C "$repo" log --first-parent --reverse --format="$format" \
                  "${id[1]}..${id[2]}")"
      # The chain's oldest commit and its parents: its first parent must be
      # the merge's.
      read -r -a oldest <<< "${side%%$'\t'*}"
      if [ -n "$side" ] && [ "${oldest[1]:-}" = "${id[1]}" ]; then
        printf '%s\n' "$side" | emit_commits
        base="${id[2]}"
      fi
    fi
    emit_block "${id[0]}" "$base" "$author" "$time" "$subject"
  done
}

# Oldest-first, first-parent history.
git -C "$repo" log --first-parent --reverse --format="$format" -- "${pathspec[@]}" |
  emit_commits
