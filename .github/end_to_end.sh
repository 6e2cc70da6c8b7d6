# The end-to-end runs that CI repeats to check that records are bit-reproducible.
# Source it, cd to the directory that is to hold the runs, and call
#   write_configs        to write each run's config;
#   passes TAG CMD...    to run all fifteen with the command line CMD... (one
#                        that takes blindmimo's arguments) into <name>_TAG;
#   same A B             to compare passes A and B run by run (diff -r).
# METHODS, when set, replaces the methods of every simulate run.
# Every run takes its seed, trials and preconditioning from its config.

# Each simulate run: its name, its methods and its config.  long, mid and short are
# the only runs of the row-space path, where l3 and l4 iterate K x K coordinates,
# so none of their l3 or l4 records may be an error record.
SIMULATE=(
  # The default config's dense, unpreconditioned block, whose gradient reads Ybar through its transpose.
  'dense l3,l4,rgd,pilot {"trials": 2, "sweep": {"param": "snr_db", "values": [10.0, 20.0]}}'
  # The only preconditioned T = 240 frame (20 dB), whose top-K Gram eigenpairs take the subspace iteration.
  'long l3 {"trials": 2, "solver": {"precondition": true}, "sweep": {"param": "snr_db", "values": [20.0]}}'
  # The only preconditioned T = 120 frame (10 and 30 dB), by subspace iteration too.
  'mid l3 {"t_len": 120, "trials": 2, "solver": {"precondition": true}, "sweep": {"param": "snr_db", "values": [10.0, 30.0]}}'
  # T = 40 under log-distance fading: the Gram's full eigendecomposition; only rgd steps in T-space, where its gradients meet the Gram route's cut.
  'short l3,l4,rgd,pilot {"k_users": 8, "t_len": 40, "n_h": 256, "theta": 0.1, "channel_model": "bernoulli_gaussian", "fading_model": "log_distance", "trials": 2, "solver": {"precondition": true}, "sweep": {"param": "snr_db", "values": [10.0, 20.0, 30.0]}}'
  # A 16 x 8 clustered array, the only run with n_v > 1.
  'planar l3,l4,rgd,pilot {"n_h": 16, "n_v": 8, "n_paths": 3, "trials": 2, "sweep": {"param": "snr_db", "values": [20.0]}}'
  # Bernoulli-Gaussian under identity fading, the only run where the l3 envelope holds, so l3 records carry a normalized objective.
  'bg l3,l4,rgd,pilot {"k_users": 8, "t_len": 120, "n_h": 128, "theta": 0.2, "channel_model": "bernoulli_gaussian", "trials": 2, "sweep": {"param": "snr_db", "values": [10.0, 30.0]}}'
  # bg's channel model with 16-QAM, the only run of an alphabet other than QPSK.
  'qam16 l3,l4,rgd,pilot {"constellation": "qam16", "k_users": 8, "t_len": 120, "n_h": 128, "theta": 0.2, "channel_model": "bernoulli_gaussian", "trials": 2, "sweep": {"param": "snr_db", "values": [20.0, 30.0]}}'
  # qam16 at power 4, the only run off unit power at a fixed snr_db: G P is the one received gain, so its l3, l4 and pilot records are qam16's but for the exempt fields.
  'loud l3,l4,pilot {"constellation": "qam16", "k_users": 8, "t_len": 120, "n_h": 128, "theta": 0.2, "channel_model": "bernoulli_gaussian", "power": 4.0, "trials": 2, "sweep": {"param": "snr_db", "values": [20.0, 30.0]}}'
  # The default config at power 1e-6 with its noise scaled alike (20 dB), the only run far from unit scale: l3 and l4 must iterate there as at power 1, and pilot must decide.
  'faint l3,l4,rgd,pilot {"sigma_z2": 3.3333333333333335e-10, "trials": 2, "sweep": {"param": "power", "values": [1e-06]}}'
  # Log-distance fading (G about 1e-10) at power 1e-314: G P underflows to 0 for some users in every trial, and each trial is one error record per method naming them, not the end of the run.
  'underflow l3,l4,pilot {"k_users": 4, "t_len": 60, "n_h": 32, "t_pilot": 8, "channel_model": "bernoulli_gaussian", "fading_model": "log_distance", "base_seed": 99, "trials": 3, "sweep": {"param": "power", "values": [1e-314]}}'
  # Noiseless, K = 1, M = 2, theta = 0.05: most channels are all zero, and each such trial is a RankDeficientError record, not the end of the run.
  'zero l3,l4,rgd,pilot {"k_users": 1, "n_h": 2, "t_len": 8, "theta": 0.05, "channel_model": "bernoulli_gaussian", "snr_db": Infinity, "t_pilot": 1, "trials": 4, "sweep": {"param": "theta", "values": [0.05]}}'
)

write_configs() {
  local run name methods config
  for run in "${SIMULATE[@]}"; do
    read -r name methods config <<< "$run"
    echo "$config" > "$name.json"
  done
  echo '{"k_users": 4, "t_len": 60, "n_h": 64, "channel_model": "bernoulli_gaussian", "trials": 2}' > conv.json
  echo '{"k_users": 4, "t_len": 60, "n_h": 64, "theta": 0.2, "channel_model": "bernoulli_gaussian", "sigma_z2": 0.001, "trials": 2, "variants": {"theta_half": {"theta": 0.1}, "n_h_double": {"n_h": 128}}}' > convvar.json
}

passes() {
  local tag=$1 run name methods config
  shift
  for run in "${SIMULATE[@]}"; do
    read -r name methods config <<< "$run"
    "$@" simulate --config "$name.json" --out "${name}_$tag" --methods "${METHODS:-$methods}"
  done
  # report must rebuild the dense run's summary and plot files byte for byte from its records.
  "$@" report --records "dense_$tag/trials.jsonl" --out "report_$tag"
  diff -r "dense_$tag" "report_$tag"
  # The default variants, so a change to solve's numerics that shows only in the convergence study fails too.
  "$@" convergence --config conv.json --out "conv_$tag"
  # Variants from the config at level 0.8, so a change to how a variant takes its trials and seed fails too.
  "$@" convergence --config convvar.json --out "convvar_$tag" --level 0.8
  "$@" concentration --k-list 4,8 --t-list 36,54 --trials 150 --out "conc_$tag"
}

same() {
  local dir
  for dir in *_"$1"; do
    diff -r "$dir" "${dir%_"$1"}_$2"
  done
}
