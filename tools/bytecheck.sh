#!/usr/bin/env bash
# Check that two survfuse source trees write byte-identical outputs.
#
#   tools/bytecheck.sh PARENT_SRC CHANGE_SRC [WORK_DIR]
#
# PARENT_SRC and CHANGE_SRC are each a checkout root or its src/ directory
# (make the parent one with `git archive <commit> | tar -x -C DIR`). Both
# trees run the same commands with one BLAS thread, each in its own
# directory under WORK_DIR (default: a new temporary directory):
#
#   - synth and splits with the README walkthrough settings;
#   - eval --risks and km --svg on a risks file written from the synthetic
#     clinical table by a fixed rule (risk = grade - time_days / 1000);
#   - three commands that must fail, each on a damaged copy of an input
#     with two faults, so the error names the first in file order: splits
#     on a clinical.csv with grade 7 on line 5 and a short row on line 9;
#     eval --risks on a risks file with nan on line 4 and line 6's id
#     repeated on line 8; km on a risks file with a short row on line 3
#     and a bad token on line 6;
#   - the fused walkthrough train (mmmt-default, 30 epochs) for seeds 1 and
#     7, each followed by eval of best, final, and final per patient; seed 1
#     then evaluates final once more, which reads the parse cache the
#     earlier commands wrote, where the tree has one;
#   - 3-epoch smst-gene (gene-only) and smst-image (image-only) runs on the
#     same data, each followed by eval of best and final;
#   - the fused walkthrough train for seed 1 again, followed by eval of
#     best and final, into a copy of seed 7's finished output directory, so
#     each checkpoint is written over one already there (seed 1's best
#     epoch is 26 of 0-29; seed 7's, like the 3-epoch runs', is its last);
#   - the fused walkthrough train for seed 1 again, followed by eval of
#     final, on a copy of the data whose clinical.csv and expression.csv
#     have \r\n line endings and a quoted sample id on every other line,
#     so the CSV reader switches between its quote-free path and
#     csv.reader;
#   - a 3-epoch fused train for seed 1, followed by eval of final, on a
#     copy of the data whose edges.tsv links gene G0100 to 179 others, so
#     one column of the masked gene layer sums 180 terms (the walkthrough
#     graph's deepest column has 15);
#   - a 3-epoch fused train for seed 1, followed by eval of final, on a
#     copy of the data whose edges.tsv links every pair of the 200 genes,
#     so gene.masked.values holds 40,000 values (200 self-loops and 39,800
#     edge ends) and its stored gradient spans two Adam blocks of
#     _ADAM_CHUNK = 32,768 elements (the walkthrough's holds 1,422 values,
#     and no bias exceeds 1,000). The train takes about 2 s;
#   - a 3-epoch fused train for seed 1, followed by eval of final, on a
#     copy of the data whose edges.tsv is messy but means nearly the same
#     graph: a "gene1 gene2" header, comments and blank lines, every edge
#     twice (once space-separated, once reversed and tab-separated), a
#     self-pair, two symbols outside the panel, and the lines shuffled so
#     genes first appear out of symbol order. Every edge of gene G0013 is
#     left out, so that panel gene is dropped and the graph's edges are
#     remapped onto a smaller panel;
#   - a 3-epoch fused train for seed 1 with batch 24, followed by eval of
#     final. The 320 training samples make 13 batches of 24 and a last one
#     of 8, so every epoch forms weight gradients at two batch heights;
#   - a 2-epoch fused train of all 5 repetitions (--all-reps) for seed 1,
#     which trains every repetition but the last while the unstandardized
#     cohort is still held, and writes aggregate.json;
#   - a 3-epoch fused --schedule joint-add train for seed 1, followed by
#     eval of final, so every backward pass carries both heads' gradients;
#   - a 3-epoch fused --schedule survival-only --heads both train for seed
#     1, followed by eval of final, so the grade head is built but never
#     trained: every backward pass gives it zero gradients;
#   - on a copy of the data whose expression.csv lacks every 7th sample
#     row, and whose embeddings.csv lacks every 11th and holds the rest in
#     reverse order, a 3-epoch fused train for seed 1 followed by eval of
#     final, then 2-epoch gene-only (smst-gene) and image-only (smst-image)
#     trains. Each drops the samples missing a modality it reads (88, 57
#     and 36 of 400), warns, and gathers the embedding rows it keeps into
#     clinical order;
#   - on a copy of the data in which every second clinical row takes the
#     previous row's patient_id, time_days and event (so 200 patients hold
#     two samples each, with shared labels), with its splits regenerated
#     with --group patient, a 10-epoch fused train for seed 1 with
#     "aggregation": "patient" and "tie_rule": "strict", followed by eval
#     of best and final, so the score that picks best/ and the reported
#     metrics both take the non-default settings.
#
# Every command's stdout, stderr and exit code is kept next to what it
# wrote. The script ends with `diff -r` of the two directories, less the
# .survfuse-cache directories beside the input CSVs (a cache, not an
# output), and exits 0 only when every file is identical (1 on any
# difference, 2 on bad usage).
# A fused walkthrough job takes about ten seconds on one core.

set -uo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 PARENT_SRC CHANGE_SRC [WORK_DIR]" >&2
    exit 2
fi

src_dir() {
    if [ -d "$1/src/survfuse" ]; then
        (cd "$1/src" && pwd)
    elif [ -d "$1/survfuse" ]; then
        (cd "$1" && pwd)
    else
        echo "bytecheck: no survfuse package under $1" >&2
        exit 2
    fi
}

parent=$(src_dir "$1") || exit 2
change=$(src_dir "$2") || exit 2
work=${3:-$(mktemp -d)}
mkdir -p "$work" || exit 2
work=$(cd "$work" && pwd)
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

# step NAME ARGS...: run one survfuse command, keeping its streams and code.
step() {
    local name=$1
    shift
    python3 -m survfuse "$@" >"logs/$name.out" 2>"logs/$name.err"
    echo $? >"logs/$name.rc"
}

# config FILE VARIANT SCHEDULE PRESET SEED OUT [DATA_DIR]
config() {
    local data=${7:-data}
    cat >"$1" <<EOF
{
  "variant": "$2",
  "schedule": "$3",
  "preset": "$4",
  "seed": $5,
  "expression": "$data/expression.csv",
  "embeddings": "$data/embeddings.csv",
  "clinical": "$data/clinical.csv",
  "edge_list": "$data/edges.tsv",
  "splits": "$data/splits.json",
  "out": "$6"
}
EOF
}

run_tree() {
    local dir=$2
    mkdir -p "$dir/logs"
    cd "$dir" || return 1
    export PYTHONPATH=$1
    step synth synth --patients 400 --genes 200 --causal 20 --censor 0.3 \
        --noise 0.1 --seed 7 --embedding-dim 1000 --out data/
    step splits splits --clinical data/clinical.csv --reps 5 \
        --train-frac 0.8 --group patient --seed 1 --out data/splits.json
    LC_ALL=C awk -F, 'NR == 1 { print "sample_id,risk"; next }
             { printf "%s,%.17g\n", $1, $5 - $3 / 1000 }' \
        data/clinical.csv >risks.csv
    step eval-risks eval --risks risks.csv --clinical data/clinical.csv \
        --out eval-risks.json
    step km km --risks risks.csv --clinical data/clinical.csv --out km.csv \
        --svg km.svg
    mkdir -p data-bad
    LC_ALL=C awk -F, -v OFS=, 'NR == 5 { $5 = 7 }
             NR == 9 { print $1, $2, $3, $4; next } { print }' \
        data/clinical.csv >data-bad/clinical.csv
    step splits-bad splits --clinical data-bad/clinical.csv --reps 5 \
        --out data-bad/splits.json
    LC_ALL=C awk -F, -v OFS=, 'NR == 4 { $2 = "nan" } NR == 6 { id = $1 }
             NR == 8 { $1 = id } { print }' risks.csv >risks-nan.csv
    step eval-risks-bad eval --risks risks-nan.csv \
        --clinical data/clinical.csv --out eval-risks-bad.json
    LC_ALL=C awk -F, -v OFS=, 'NR == 3 { print $1; next }
             NR == 6 { $2 = "high" } { print }' risks.csv >risks-short.csv
    step km-bad km --risks risks-short.csv --clinical data/clinical.csv \
        --out km-bad.csv
    for seed in 1 7; do
        config "fused-$seed.json" fused alternate mmmt-default "$seed" \
            "out-fused-$seed/"
        step "train-fused-$seed" train "fused-$seed.json" --rep 0
        for which in best final; do
            step "eval-fused-$seed-$which" eval --config "fused-$seed.json" \
                --model "out-fused-$seed/rep00/$which" --rep 0 \
                --out "eval-fused-$seed-$which.json"
        done
        step "eval-fused-$seed-patient" eval --config "fused-$seed.json" \
            --model "out-fused-$seed/rep00/final" --rep 0 \
            --aggregation patient --out "eval-fused-$seed-patient.json"
    done
    step eval-fused-1-final-again eval --config fused-1.json \
        --model out-fused-1/rep00/final --rep 0 \
        --out eval-fused-1-final-again.json
    for run in gene-only:smst-gene image-only:smst-image; do
        local variant=${run%%:*} preset=${run#*:}
        config "$preset.json" "$variant" survival-only "$preset" 7 \
            "out-$preset/"
        step "train-$preset" train "$preset.json" --rep 0 --epochs 3
        for which in best final; do
            step "eval-$preset-$which" eval --config "$preset.json" \
                --model "out-$preset/rep00/$which" --rep 0 \
                --out "eval-$preset-$which.json"
        done
    done
    cp -r out-fused-7 out-fused-1-over-7
    config fused-1-over-7.json fused alternate mmmt-default 1 \
        out-fused-1-over-7/
    step train-fused-1-over-7 train fused-1-over-7.json --rep 0
    for which in best final; do
        step "eval-fused-1-over-7-$which" eval --config fused-1-over-7.json \
            --model "out-fused-1-over-7/rep00/$which" --rep 0 \
            --out "eval-fused-1-over-7-$which.json"
    done
    mkdir -p data-crlf
    cp data/embeddings.csv data/edges.tsv data/splits.json data-crlf/
    for f in clinical expression; do
        LC_ALL=C awk -F, -v OFS=, '{ sub(/\r$/, "") }
            NR % 2 == 0 { $1 = "\"" $1 "\"" }
            { printf "%s\r\n", $0 }' \
            "data/$f.csv" >"data-crlf/$f.csv"
    done
    config fused-crlf.json fused alternate mmmt-default 1 out-fused-crlf/ \
        data-crlf
    step train-fused-crlf train fused-crlf.json --rep 0
    step eval-fused-crlf-final eval --config fused-crlf.json \
        --model out-fused-crlf/rep00/final --rep 0 \
        --out eval-fused-crlf-final.json
    mkdir -p data-hub
    cp data/clinical.csv data/expression.csv data/embeddings.csv \
        data/edges.tsv data/splits.json data-hub/
    for i in $(seq 1 180); do
        printf 'G0100\tG%04d\n' "$i"
    done >>data-hub/edges.tsv
    config fused-hub.json fused alternate mmmt-default 1 out-fused-hub/ \
        data-hub
    step train-fused-hub train fused-hub.json --rep 0 --epochs 3
    step eval-fused-hub-final eval --config fused-hub.json \
        --model out-fused-hub/rep00/final --rep 0 \
        --out eval-fused-hub-final.json
    mkdir -p data-complete
    cp data/clinical.csv data/expression.csv data/embeddings.csv \
        data/splits.json data-complete/
    LC_ALL=C awk 'BEGIN { for (i = 1; i <= 200; i++)
                              for (j = i + 1; j <= 200; j++)
                                  printf "G%04d\tG%04d\n", i, j }' \
        >data-complete/edges.tsv
    config fused-complete.json fused alternate mmmt-default 1 \
        out-fused-complete/ data-complete
    step train-fused-complete train fused-complete.json --rep 0 --epochs 3
    step eval-fused-complete-final eval --config fused-complete.json \
        --model out-fused-complete/rep00/final --rep 0 \
        --out eval-fused-complete-final.json
    mkdir -p data-messy
    cp data/clinical.csv data/expression.csv data/embeddings.csv \
        data/splits.json data-messy/
    # Each line gets a random sort key in the first field, cut after sorting.
    {
        printf 'gene1 gene2\n# a messy copy of edges.tsv\n\n'
        LC_ALL=C awk -F'\t' 'BEGIN { srand(1) }
            $1 == "G0013" || $2 == "G0013" { next }
            { printf "%.17g\t%s %s\n%.17g\t%s\t%s\n", rand(), $1, $2,
                     rand(), $2, $1 }
            NR % 50 == 0 { printf "%.17g\t# line %d\n%.17g\t\n", rand(), NR,
                                  rand() }
            END { printf "%.17g\tG0007\tG0007\n", rand()
                  printf "%.17g\tXNOVEL1 G0002\n", rand()
                  printf "%.17g\tXNOVEL2\tXNOVEL3\n", rand() }' \
            data/edges.tsv | LC_ALL=C sort -g -k1,1 | cut -f2-
    } >data-messy/edges.tsv
    config fused-messy.json fused alternate mmmt-default 1 out-fused-messy/ \
        data-messy
    step train-fused-messy train fused-messy.json --rep 0 --epochs 3
    step eval-fused-messy-final eval --config fused-messy.json \
        --model out-fused-messy/rep00/final --rep 0 \
        --out eval-fused-messy-final.json
    config fused-ragged.json fused alternate mmmt-default 1 out-fused-ragged/
    step train-fused-ragged train fused-ragged.json --rep 0 --epochs 3 \
        --batch 24
    step eval-fused-ragged-final eval --config fused-ragged.json \
        --model out-fused-ragged/rep00/final --rep 0 \
        --out eval-fused-ragged-final.json
    config fused-all.json fused alternate mmmt-default 1 out-fused-all/
    step train-fused-all train fused-all.json --all-reps --epochs 2
    config fused-joint.json fused joint-add mmmt-default 1 out-fused-joint/
    step train-fused-joint train fused-joint.json --rep 0 --epochs 3
    step eval-fused-joint-final eval --config fused-joint.json \
        --model out-fused-joint/rep00/final --rep 0 \
        --out eval-fused-joint-final.json
    config fused-untrained.json fused survival-only mmmt-default 1 \
        out-fused-untrained/
    step train-fused-untrained train fused-untrained.json --rep 0 \
        --epochs 3 --heads both
    step eval-fused-untrained-final eval --config fused-untrained.json \
        --model out-fused-untrained/rep00/final --rep 0 \
        --out eval-fused-untrained-final.json
    mkdir -p data-incomplete
    cp data/clinical.csv data/edges.tsv data/splits.json data-incomplete/
    awk 'NR == 1 || (NR - 1) % 7' data/expression.csv \
        >data-incomplete/expression.csv
    {
        head -n 1 data/embeddings.csv
        tail -n +2 data/embeddings.csv | awk 'NR % 11' | tac
    } >data-incomplete/embeddings.csv
    config fused-incomplete.json fused alternate mmmt-default 1 \
        out-fused-incomplete/ data-incomplete
    step train-fused-incomplete train fused-incomplete.json --rep 0 \
        --epochs 3
    step eval-fused-incomplete-final eval --config fused-incomplete.json \
        --model out-fused-incomplete/rep00/final --rep 0 \
        --out eval-fused-incomplete-final.json
    for run in gene-only:smst-gene image-only:smst-image; do
        local variant=${run%%:*} preset=${run#*:}
        config "$preset-incomplete.json" "$variant" survival-only "$preset" \
            1 "out-$preset-incomplete/" data-incomplete
        step "train-$preset-incomplete" train "$preset-incomplete.json" \
            --rep 0 --epochs 2
    done
    mkdir -p data-paired
    cp data/expression.csv data/embeddings.csv data/edges.tsv data-paired/
    LC_ALL=C awk -F, -v OFS=, 'NR > 1 && NR % 2 == 1 { $2 = p; $3 = t; $4 = e }
             { p = $2; t = $3; e = $4; print }' \
        data/clinical.csv >data-paired/clinical.csv
    step splits-paired splits --clinical data-paired/clinical.csv --reps 5 \
        --train-frac 0.8 --group patient --seed 1 --out data-paired/splits.json
    config fused-paired.json fused alternate mmmt-default 1 out-fused-paired/ \
        data-paired
    sed -i '1a\  "aggregation": "patient",\n  "tie_rule": "strict",' \
        fused-paired.json
    step train-fused-paired train fused-paired.json --rep 0 --epochs 10
    for which in best final; do
        step "eval-fused-paired-$which" eval --config fused-paired.json \
            --model "out-fused-paired/rep00/$which" --rep 0 \
            --out "eval-fused-paired-$which.json"
    done
}

for side in parent change; do
    rm -rf "${work:?}/$side"
    echo "bytecheck: running the $side tree in $work/$side" >&2
    (run_tree "${!side}" "$work/$side")
done

total=$(cd "$work/parent" && find . -name .survfuse-cache -prune -o -type f \
    -print | wc -l)
if diff -r -x .survfuse-cache "$work/parent" "$work/change"; then
    echo "bytecheck: all $total files identical"
    exit 0
fi
echo "bytecheck: outputs differ (see diff above)" >&2
exit 1
