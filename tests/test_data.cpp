#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "data/dataset.h"
#include "data/mnist.h"
#include "data/synthetic_mnist.h"

namespace scbnn::data {
namespace {

TEST(SyntheticMnist, ImageShapeAndRange) {
  const nn::Tensor img = render_digit(3, 0);
  EXPECT_EQ(img.shape(), (std::vector<int>{1, 1, 28, 28}));
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_GE(img[i], 0.0f);
    EXPECT_LE(img[i], 1.0f);
  }
}

TEST(SyntheticMnist, DeterministicPerInstance) {
  const nn::Tensor a = render_digit(5, 17);
  const nn::Tensor b = render_digit(5, 17);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(SyntheticMnist, InstancesDiffer) {
  const nn::Tensor a = render_digit(5, 1);
  const nn::Tensor b = render_digit(5, 2);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += std::abs(static_cast<double>(a[i]) - b[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(SyntheticMnist, DigitsHaveInk) {
  for (int d = 0; d < 10; ++d) {
    const nn::Tensor img = render_digit(d, 0);
    double ink = 0.0;
    for (std::size_t i = 0; i < img.size(); ++i) ink += img[i];
    EXPECT_GT(ink, 10.0) << "digit " << d << " rendered blank";
    EXPECT_LT(ink, 400.0) << "digit " << d << " rendered solid";
  }
}

TEST(SyntheticMnist, ClassesAreVisuallyDistinct) {
  // Mean intra-class distance must be smaller than mean inter-class
  // distance — a weak but necessary condition for learnability.
  const int per_class = 6;
  std::vector<std::vector<nn::Tensor>> imgs(10);
  for (int d = 0; d < 10; ++d) {
    for (int i = 0; i < per_class; ++i) {
      imgs[static_cast<std::size_t>(d)].push_back(
          render_digit(d, static_cast<std::uint64_t>(i)));
    }
  }
  auto dist = [](const nn::Tensor& a, const nn::Tensor& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = static_cast<double>(a[i]) - b[i];
      s += d * d;
    }
    return std::sqrt(s);
  };
  double intra = 0.0;
  int intra_n = 0;
  double inter = 0.0;
  int inter_n = 0;
  for (int d = 0; d < 10; ++d) {
    for (int i = 0; i < per_class; ++i) {
      for (int j = i + 1; j < per_class; ++j) {
        intra += dist(imgs[d][i], imgs[d][j]);
        ++intra_n;
      }
      const int other = (d + 1) % 10;
      inter += dist(imgs[d][i], imgs[other][i]);
      ++inter_n;
    }
  }
  EXPECT_LT(intra / intra_n, inter / inter_n);
}

TEST(SyntheticMnist, SplitShapesAndBalance) {
  const DataSplit split = generate_synthetic_mnist(200, 50, 9);
  EXPECT_EQ(split.train.size(), 200u);
  EXPECT_EQ(split.test.size(), 50u);
  EXPECT_EQ(split.train.images.dim(0), 200);
  const auto hist = class_histogram(split.train);
  for (int c = 0; c < 10; ++c) EXPECT_EQ(hist[static_cast<std::size_t>(c)], 20);
}

TEST(SyntheticMnist, TrainAndTestDisjoint) {
  const DataSplit split = generate_synthetic_mnist(100, 100, 11);
  // Same digit class, same slot index: train and test come from disjoint
  // instance streams so images must differ.
  double diff = 0.0;
  for (std::size_t i = 0; i < 100 * 28 * 28; ++i) {
    diff += std::abs(static_cast<double>(split.train.images[i]) -
                     split.test.images[i]);
  }
  EXPECT_GT(diff, 10.0);
}

TEST(SyntheticMnist, SeedChangesData) {
  const DataSplit a = generate_synthetic_mnist(50, 10, 1);
  const DataSplit b = generate_synthetic_mnist(50, 10, 2);
  double diff = 0.0;
  for (std::size_t i = 0; i < a.train.images.size(); ++i) {
    diff += std::abs(static_cast<double>(a.train.images[i]) -
                     b.train.images[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Dataset, HeadTruncates) {
  const DataSplit split = generate_synthetic_mnist(40, 10, 3);
  const Dataset h = head(split.train, 15);
  EXPECT_EQ(h.size(), 15u);
  EXPECT_EQ(h.images.dim(0), 15);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(h.labels[i], split.train.labels[i]);
  }
  // n beyond size clamps.
  EXPECT_EQ(head(split.test, 100).size(), 10u);
}

class IdxRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("scbnn_idx_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static void write_be32(std::ofstream& f, std::uint32_t v) {
    const unsigned char b[4] = {
        static_cast<unsigned char>(v >> 24), static_cast<unsigned char>(v >> 16),
        static_cast<unsigned char>(v >> 8), static_cast<unsigned char>(v)};
    f.write(reinterpret_cast<const char*>(b), 4);
  }

  void write_pair(int n, const std::string& img_name,
                  const std::string& lab_name) {
    std::ofstream fi(dir_ / img_name, std::ios::binary);
    write_be32(fi, 0x803);
    write_be32(fi, static_cast<std::uint32_t>(n));
    write_be32(fi, 28);
    write_be32(fi, 28);
    for (int i = 0; i < n; ++i) {
      for (int p = 0; p < 784; ++p) {
        const unsigned char v = static_cast<unsigned char>((i * 7 + p) % 256);
        fi.write(reinterpret_cast<const char*>(&v), 1);
      }
    }
    std::ofstream fl(dir_ / lab_name, std::ios::binary);
    write_be32(fl, 0x801);
    write_be32(fl, static_cast<std::uint32_t>(n));
    for (int i = 0; i < n; ++i) {
      const unsigned char v = static_cast<unsigned char>(i % 10);
      fl.write(reinterpret_cast<const char*>(&v), 1);
    }
  }

  std::filesystem::path dir_;
};

TEST_F(IdxRoundTrip, LoadsWrittenData) {
  write_pair(5, "imgs", "labs");
  const Dataset d = load_idx_pair((dir_ / "imgs").string(),
                                  (dir_ / "labs").string());
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.labels[3], 3);
  EXPECT_NEAR(d.images[0], 0.0f, 1e-6f);
  EXPECT_NEAR(d.images[1], 1.0f / 255.0f, 1e-6f);
}

TEST_F(IdxRoundTrip, FullSplitViaDirectory) {
  write_pair(8, "train-images-idx3-ubyte", "train-labels-idx1-ubyte");
  write_pair(4, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte");
  const auto split = try_load_mnist_idx(dir_.string());
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->train.size(), 8u);
  EXPECT_EQ(split->test.size(), 4u);
}

TEST_F(IdxRoundTrip, MissingFilesReturnNullopt) {
  EXPECT_FALSE(try_load_mnist_idx(dir_.string()).has_value());
}

TEST_F(IdxRoundTrip, BadMagicRejected) {
  std::ofstream fi(dir_ / "imgs", std::ios::binary);
  write_be32(fi, 0xDEADBEEF);
  fi.close();
  std::ofstream fl(dir_ / "labs", std::ios::binary);
  write_be32(fl, 0x801);
  write_be32(fl, 0);
  fl.close();
  EXPECT_THROW((void)load_idx_pair((dir_ / "imgs").string(),
                                   (dir_ / "labs").string()),
               std::runtime_error);
}

TEST(ResolveDataset, FallsBackToSynthetic) {
  // Without MNIST_DIR (or with it unset/missing) the synthetic generator
  // must provide the requested sizes.
  const auto resolved = resolve_dataset(30, 10, 5);
  EXPECT_EQ(resolved.split.train.size(), 30u);
  EXPECT_EQ(resolved.split.test.size(), 10u);
}

}  // namespace
}  // namespace scbnn::data
