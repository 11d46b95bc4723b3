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
# first-parent order, and a merge commit's block holds what the merge brought
# in: the files it changed against its first parent. Paths are read as git
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
trap 'rm -f "$blob"' EXIT

# Oldest-first, first-parent history.
git -C "$repo" log --first-parent --reverse --format='%H%x09%an%x09%at%x09%s' \
    -- "${pathspec[@]}" |
while IFS=$'\t' read -r sha author time subject; do
  echo "commit"
  echo "author ${author}"
  echo "time ${time}"
  # vchist messages are single-line; strip tabs/newlines defensively. An
  # empty subject is no `message` directive, as SaveHistory writes it.
  subject="$(printf '%s' "$subject" | tr '\t\n' '  ')"
  if [ -n "${subject//[[:space:]]/}" ]; then
    echo "message ${subject}"
  fi
  # Files this commit touched within the pathspec, against its first parent,
  # as NUL-terminated status and path fields. diff-tree detects no renames
  # here: a rename is a D row and an A row.
  git -C "$repo" diff-tree --no-commit-id --name-status -r --root -z \
      --diff-merges=first-parent "$sha" -- "${pathspec[@]}" |
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
  done
  echo "end"
done
