/**
 * @file
 * Small statistics utilities used across the framework.
 *
 * The most important piece is the sliding-window linear-regression slope
 * (Section 5.2.2 of the paper): each VQA cluster keeps a window of the
 * last W loss values and fits a least-squares line through them; the slope
 * of that line is the split-trigger signal.
 */

#ifndef TREEVQA_COMMON_STATISTICS_H
#define TREEVQA_COMMON_STATISTICS_H

#include <cstddef>
#include <deque>
#include <vector>

namespace treevqa {

/** Arithmetic mean; returns 0 for an empty range. */
double mean(const std::vector<double> &xs);

/** Population variance; returns 0 for fewer than 2 samples. */
double variance(const std::vector<double> &xs);

/** Population standard deviation. */
double stddev(const std::vector<double> &xs);

/**
 * Least-squares slope of y against x = 0, 1, ..., n-1.
 *
 * Returns 0 for fewer than 2 points. This is the LinearRegression slope
 * in Algorithm 2 of the paper.
 */
double linearRegressionSlope(const std::vector<double> &ys);

/** Least-squares slope of y against explicit abscissae x. */
double linearRegressionSlope(const std::vector<double> &xs,
                             const std::vector<double> &ys);

/**
 * Fixed-capacity sliding window over a scalar series with an O(1)-amortized
 * slope query.
 *
 * Used by VqaCluster to monitor both the mixed-Hamiltonian loss and each
 * member Hamiltonian's individual loss.
 */
class SlidingWindow
{
  public:
    /** @param capacity window length W; must be >= 2 for slopes. */
    explicit SlidingWindow(std::size_t capacity);

    /** Append a sample, evicting the oldest when full. */
    void push(double value);

    /** Number of samples currently held. */
    std::size_t size() const { return values_.size(); }

    /** True once the window holds `capacity` samples. */
    bool full() const { return values_.size() == capacity_; }

    /** Window capacity W. */
    std::size_t capacity() const { return capacity_; }

    /** Regression slope over the current contents (0 if size < 2). */
    double slope() const;

    /** Mean of current contents. */
    double windowMean() const;

    /** Most recent sample; requires non-empty window. */
    double back() const { return values_.back(); }

    /** Current contents, oldest first. */
    const std::deque<double> &values() const { return values_; }

    /** Drop all samples. */
    void clear() { values_.clear(); }

  private:
    std::size_t capacity_;
    std::deque<double> values_;
};

/** Online mean/variance accumulator (Welford). */
class RunningStats
{
  public:
    void push(double x);
    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Median of a copy of xs; returns 0 for empty input. */
double median(std::vector<double> xs);

} // namespace treevqa

#endif // TREEVQA_COMMON_STATISTICS_H
