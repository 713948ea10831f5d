//! Rank utilities shared by the non-parametric tests.

/// Midranks (1-based average ranks) of a sample, ties receiving the average
/// of the positions they span — the convention used by Kruskal–Wallis,
/// Mann–Whitney and Fligner–Killeen.
pub(crate) fn average_ranks(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("NaN in sample"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && data[idx[j + 1]] == data[idx[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Tie sizes in a sample: the multiplicities `t_i > 1` of repeated values.
pub(crate) fn tie_sizes(data: &[f64]) -> Vec<usize> {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let mut ties = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        if j > i {
            ties.push(j - i + 1);
        }
        i = j + 1;
    }
    ties
}

/// Kruskal–Wallis tie-correction factor `1 − Σ(t³−t) / (N³−N)`.
///
/// Equals 1 with no ties; the H statistic is divided by this factor.
pub(crate) fn tie_correction(data: &[f64]) -> f64 {
    let n = data.len() as f64;
    if n < 2.0 {
        return 1.0;
    }
    let tie_sum: f64 = tie_sizes(data)
        .into_iter()
        .map(|t| {
            let t = t as f64;
            t * t * t - t
        })
        .sum();
    1.0 - tie_sum / (n * n * n - n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_without_ties() {
        assert_eq!(average_ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties() {
        // [1, 2, 2, 3] -> ranks [1, 2.5, 2.5, 4]
        assert_eq!(
            average_ranks(&[1.0, 2.0, 2.0, 3.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
        // All equal -> everyone gets the middle rank.
        assert_eq!(average_ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn tie_sizes_found() {
        assert_eq!(tie_sizes(&[1.0, 2.0, 2.0, 3.0, 3.0, 3.0]), vec![2, 3]);
        assert!(tie_sizes(&[1.0, 2.0, 3.0]).is_empty());
    }

    #[test]
    fn tie_correction_values() {
        assert_eq!(tie_correction(&[1.0, 2.0, 3.0]), 1.0);
        // N=4 with one pair tied: 1 - (8-2)/(64-4) = 0.9
        assert!((tie_correction(&[1.0, 2.0, 2.0, 3.0]) - 0.9).abs() < 1e-12);
        assert_eq!(tie_correction(&[1.0]), 1.0);
    }

    #[test]
    fn ranks_sum_invariant() {
        // Ranks always sum to n(n+1)/2 regardless of ties.
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        let n = data.len() as f64;
        let sum: f64 = average_ranks(&data).iter().sum();
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-9);
    }
}
