#!/bin/sh
# The same workflow as the Python demos, driven entirely through the CLI.
# Every command takes a --seed and rewrites its outputs byte-for-byte on
# a rerun; each one also drops a .manifest.json recording what produced
# what.
set -e

DIR=$(mktemp -d)
echo "working in $DIR"

printf '\n%s\n' "--- 1. draw a benchmark dataset (25 features, 5 carry signal)"
sparsekm generate --experiment E3a --seed 11 --out "$DIR/data"
head -n 2 "$DIR/data.csv" | cut -c1-72
python3 -c "import json; t=json.load(open('$DIR/data.truth.json')); \
print('support:', t['support'])"

printf '\n%s\n' "--- 2. tune the sparsity budget and fit in one go"
sparsekm tune --input "$DIR/data.csv" --method l0 --k 3 \
    --restarts 5 --permutations 8 --seed 12 --fit --out "$DIR/tuned"
cat "$DIR/tuned.chosen.json"

printf '\n%s\n' "--- 3. fit at a hand-picked budget instead"
sparsekm cluster --input "$DIR/data.csv" --method l1 --k 3 --s 1.8 \
    --restarts 5 --seed 13 --out "$DIR/l1fit"

printf '\n%s\n' "--- 4. score both fits against the planted truth"
sparsekm evaluate --result "$DIR/tuned.fit.json" \
    --truth "$DIR/data.truth.json" --out "$DIR/l0score"
sparsekm evaluate --result "$DIR/l1fit.json" \
    --truth "$DIR/data.truth.json" --out "$DIR/l1score"
cat "$DIR/l0score.metrics.csv"
cat "$DIR/l1score.metrics.csv"

printf '\n%s\n' "--- 5. a miniature consistency sweep"
sparsekm sweep --mu 1.5 --p 30 --p-star 5 --n-list 12,24,48 \
    --trials 20 --seed 14 --out "$DIR/sw"
cat "$DIR/sw.sweep.csv"

printf '\n%s\n' "all outputs under $DIR"
