#include "inputs.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "io/connector.h"

namespace e2ebench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t SplitMix::Zipf(const std::vector<double>& cdf) {
  double u = Unit() * cdf.back();
  return static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin()) %
         cdf.size();
}

std::vector<double> ZipfCdf(size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  return cdf;
}

namespace {

struct TeamSpec {
  const char* code;
  const char* full_name;
  const char* color;
};

constexpr std::array<TeamSpec, 8> kTeams = {{
    {"CSK", "Chennai Super Kings", "#f9cd05"},
    {"MI", "Mumbai Indians", "#004ba0"},
    {"RCB", "Royal Challengers Bangalore", "#ec1c24"},
    {"KKR", "Kolkata Knight Riders", "#3a225d"},
    {"RR", "Rajasthan Royals", "#ea1a85"},
    {"SRH", "Sunrisers Hyderabad", "#ff822a"},
    {"KXIP", "Kings XI Punjab", "#d71920"},
    {"DD", "Delhi Daredevils", "#00008b"},
}};

struct PlayerSpec {
  const char* name;
  const char* alias;
  size_t team;
};

constexpr std::array<PlayerSpec, 16> kPlayers = {{
    {"MS Dhoni", "dhoni", 0},        {"Suresh Raina", "raina", 0},
    {"Rohit Sharma", "rohit", 1},    {"Kieron Pollard", "pollard", 1},
    {"Virat Kohli", "kohli", 2},     {"Chris Gayle", "gayle", 2},
    {"Gautam Gambhir", "gambhir", 3}, {"Sunil Narine", "narine", 3},
    {"Shane Watson", "watson", 4},   {"Ajinkya Rahane", "rahane", 4},
    {"Shikhar Dhawan", "dhawan", 5}, {"Dale Steyn", "steyn", 5},
    {"David Miller", "miller", 6},   {"Adam Gilchrist", "gilchrist", 6},
    {"Virender Sehwag", "sehwag", 7}, {"David Warner", "warner", 7},
}};

constexpr std::array<const char*, 12> kCities = {
    "Mumbai",  "Pune",      "Delhi",  "Bangalore",  "Chennai",   "Kolkata",
    "Hyderabad", "Jaipur", "Chandigarh", "Ahmedabad", "Lucknow", "Nagpur"};

constexpr std::array<const char*, 10> kPhrases = {
    "what a match today",         "brilliant innings by",
    "bowling masterclass from",   "cannot believe that catch by",
    "six after six from",         "huge win for",
    "heartbreak for the fans of", "player of the match must be",
    "superb death overs by",      "opening partnership magic from"};

constexpr std::array<const char*, 16> kSyllables = {
    "ka", "ri", "to", "ma", "ne", "lu", "so", "vi",
    "da", "pe", "ro", "zu", "mi", "ta", "ge", "bo"};

constexpr std::array<const char*, 12> kRegions = {
    "north", "south", "east", "west", "central", "coast",
    "hills", "delta", "plains", "valley", "metro", "border"};

constexpr std::array<const char*, 12> kCategories = {
    "grocery", "apparel", "electronics", "toys",   "garden", "sports",
    "books",   "beauty",  "furniture",   "health", "auto",   "music"};

constexpr int64_t kTournamentStartDay = 15827;  // 2013-05-02
constexpr int64_t kTournamentDays = 26;
constexpr int64_t kSalesStartDay = 15706;  // 2013-01-01

/// yyyy, mm, dd of a day count since 1970-01-01 (Howard Hinnant's
/// civil_from_days).
void CivilFromDays(int64_t z, int* y, int* m, int* d) {
  z += 719468;
  int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  int64_t doe = z - era * 146097;
  int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  int64_t mp = (5 * doy + 2) / 153;
  *d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  *m = static_cast<int>(mp < 10 ? mp + 3 : mp - 9);
  *y = static_cast<int>(yoe + era * 400 + (*m <= 2 ? 1 : 0));
}

std::string IsoDay(int64_t day) {
  int y, m, d;
  CivilFromDays(day, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

/// "Thu May 02 13:45:12 +0000 2013" — the Gnip `created_at` shape the
/// flow's date task parses with 'E MMM dd HH:mm:ss Z yyyy'.
std::string GnipTime(int64_t unix_seconds) {
  static constexpr const char* kDays[] = {"Thu", "Fri", "Sat", "Sun",
                                          "Mon", "Tue", "Wed"};
  static constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr",
                                            "May", "Jun", "Jul", "Aug",
                                            "Sep", "Oct", "Nov", "Dec"};
  int64_t day = unix_seconds / 86400;
  int64_t secs = unix_seconds % 86400;
  int y, m, d;
  CivilFromDays(day, &y, &m, &d);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %s %02d %02d:%02d:%02d +0000 %04d",
                kDays[day % 7], kMonths[m - 1], d,
                static_cast<int>(secs / 3600),
                static_cast<int>(secs / 60 % 60), static_cast<int>(secs % 60),
                y);
  return buf;
}

std::string Word(SplitMix* rng) {
  std::string word;
  size_t syllables = 2 + rng->Below(2);
  for (size_t i = 0; i < syllables; ++i) {
    word += kSyllables[rng->Below(kSyllables.size())];
  }
  return word;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::vector<Tweet> GenerateTweets(size_t count, SplitMix* rng) {
  static const std::vector<double> team_cdf = ZipfCdf(kTeams.size(), 0.8);
  std::vector<Tweet> tweets;
  tweets.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t team = rng->Zipf(team_cdf);
    Tweet tweet;
    tweet.posted_time =
        GnipTime((kTournamentStartDay + static_cast<int64_t>(rng->Below(
                                            kTournamentDays))) *
                     86400 +
                 static_cast<int64_t>(rng->Below(86400)));
    tweet.body = kPhrases[rng->Below(kPhrases.size())];
    if (rng->Unit() < 0.7) {
      const PlayerSpec& player = kPlayers[team * 2 + rng->Below(2)];
      tweet.body += " ";
      tweet.body += rng->Unit() < 0.5 ? player.name : player.alias;
    }
    tweet.body += " ";
    tweet.body += rng->Unit() < 0.5 ? kTeams[team].code : kTeams[team].full_name;
    for (int w = 0; w < 2; ++w) {
      tweet.body += ' ';
      tweet.body += Word(rng);
    }
    tweet.body += " #ipl";
    if (rng->Unit() < 0.8) {
      tweet.location = kCities[rng->Below(kCities.size())];
      if (rng->Unit() < 0.5) tweet.location += ", India";
    }
    tweets.push_back(std::move(tweet));
  }
  return tweets;
}

Inputs GenerateInputs(const InputSizes& sizes, uint64_t seed) {
  SplitMix rng(seed * 0x2545f4914f6cdd1dULL + 17);
  Inputs out;
  out.tweets = GenerateTweets(sizes.tweets, &rng);
  for (const PlayerSpec& player : kPlayers) {
    out.players_txt += std::string(player.name) + ": " + player.alias + "\n";
  }
  out.teams_csv = "alias,canonical\n";
  out.dim_teams_csv = "team_number,team,team_fullName,sort_order,color\n";
  for (size_t t = 0; t < kTeams.size(); ++t) {
    std::string code = kTeams[t].code;
    std::string lower_code = code, lower_name = kTeams[t].full_name;
    std::transform(lower_code.begin(), lower_code.end(), lower_code.begin(),
                   ::tolower);
    std::transform(lower_name.begin(), lower_name.end(), lower_name.begin(),
                   ::tolower);
    out.teams_csv += lower_code + "," + kTeams[t].full_name + "\n";
    out.teams_csv += lower_name + "," + kTeams[t].full_name + "\n";
    out.dim_teams_csv += std::to_string(t + 1) + "," + code + "," +
                         kTeams[t].full_name + "," + std::to_string(t + 1) +
                         "," + kTeams[t].color + "\n";
    out.team_names.push_back(kTeams[t].full_name);
  }
  out.team_players_csv = "player,team_fullName,team,player_id\n";
  for (size_t p = 0; p < kPlayers.size(); ++p) {
    const TeamSpec& team = kTeams[kPlayers[p].team];
    out.team_players_csv += std::string(kPlayers[p].name) + "," +
                            team.full_name + "," + team.code + "," +
                            std::to_string(p + 1) + "\n";
  }
  out.lat_long_csv =
      "state,point_one,point_two,point_three\n"
      "Maharashtra,19.07;72.87,18.52;73.85,21.14;79.08\n"
      "Delhi,28.61;77.20,28.70;77.10,28.50;77.30\n"
      "Karnataka,12.97;77.59,15.31;75.71,12.29;76.63\n"
      "Tamil Nadu,13.08;80.27,11.01;76.95,9.92;78.11\n"
      "West Bengal,22.57;88.36,23.68;86.96,26.72;88.39\n"
      "Telangana,17.38;78.48,17.99;79.53,18.43;79.12\n"
      "Punjab,30.73;76.77,31.63;74.87,30.90;75.85\n"
      "Rajasthan,26.91;75.78,26.23;73.02,24.57;73.69\n"
      "Gujarat,23.02;72.57,21.17;72.83,22.30;73.19\n"
      "Uttar Pradesh,26.84;80.94,26.44;80.33,25.31;82.97\n";

  constexpr size_t kProducts = 200;
  out.products_csv = "product_id,category,brand\n";
  for (size_t p = 0; p < kProducts; ++p) {
    char id[32];
    std::snprintf(id, sizeof(id), "p%03zu", p);
    out.products_csv += std::string(id) + "," +
                        kCategories[rng.Below(kCategories.size())] +
                        ",brand" + std::to_string(rng.Below(30)) + "\n";
  }
  for (size_t c = 0; c < sizes.customers; ++c) {
    char id[32];
    std::snprintf(id, sizeof(id), "c%05zu", c);
    out.customers.push_back(id);
  }
  std::vector<double> customer_cdf = ZipfCdf(sizes.customers, 0.9);
  out.sales_csv = "order_id,customer,product_id,region,qty,price,day\n";
  out.sales_csv.reserve(sizes.sales_rows * 56);
  char line[128];
  for (size_t r = 0; r < sizes.sales_rows; ++r) {
    std::snprintf(line, sizeof(line), "%zu,%s,p%03zu,%s,%d,%d.%02d,%s\n",
                  r + 1, out.customers[rng.Zipf(customer_cdf)].c_str(),
                  static_cast<size_t>(rng.Below(kProducts)),
                  kRegions[rng.Below(kRegions.size())],
                  static_cast<int>(1 + rng.Below(20)),
                  static_cast<int>(1 + rng.Below(500)),
                  static_cast<int>(rng.Below(100)),
                  IsoDay(kSalesStartDay +
                         static_cast<int64_t>(rng.Below(365)))
                      .c_str());
    out.sales_csv += line;
  }
  return out;
}

std::string TweetsToGnipJson(const std::vector<Tweet>& tweets) {
  std::string out;
  for (const Tweet& t : tweets) {
    out += "{\"created_at\":" + JsonString(t.posted_time) +
           ",\"text\":" + JsonString(t.body) +
           ",\"user\":{\"location\":" + JsonString(t.location) + "}}\n";
  }
  return out;
}

std::string TweetsToAppendBody(const std::vector<Tweet>& tweets) {
  std::string out = "[";
  for (size_t i = 0; i < tweets.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"postedTime\":" + JsonString(tweets[i].posted_time) +
           ",\"body\":" + JsonString(tweets[i].body) +
           ",\"displayName\":" + JsonString(tweets[i].location) + "}";
  }
  return out + "]";
}

void PublishInputs(const Inputs& inputs, const std::string& tweets_url) {
  auto& store = shareinsights::SimulatedRemoteStore::Get();
  store.Publish(tweets_url, TweetsToGnipJson(inputs.tweets));
  store.Publish(kDimTeamsUrl, inputs.dim_teams_csv);
  store.Publish(kTeamPlayersUrl, inputs.team_players_csv);
  store.Publish(kLatLongUrl, inputs.lat_long_csv);
  store.Publish(kSalesUrl, inputs.sales_csv);
  store.Publish(kProductsUrl, inputs.products_csv);
}

bool WriteDictionaries(const Inputs& inputs, const std::string& dir) {
  for (const auto& [name, text] :
       {std::pair<std::string, const std::string*>{"players.txt",
                                                   &inputs.players_txt},
        {"teams.csv", &inputs.teams_csv}}) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    out << *text;
    if (!out) return false;
  }
  return true;
}

std::vector<FlowVariant> AuthorVariants() {
  std::vector<FlowVariant> out;
  for (int topwords : {10, 20, 30}) {
    for (int min_revenue : {50, 200}) {
      out.push_back({topwords, min_revenue, topwords / 2});
    }
  }
  return out;
}

std::vector<std::string> FlowEndpoints() {
  return {"players_tweets", "player_tweets",  "team_tweets",
          "team_region_tweets", "tagcloud_tweets", "dim_teams",
          "tweet_teams",    "sales_enriched", "category_region",
          "top_customers"};
}

std::string FlowText(const FlowVariant& variant, const std::string& dict_dir,
                     const std::string& tweets_url) {
  std::string text = R"(
D:
  ipl_tweets: [
    postedTime => created_at,
    body => text,
    displayName => user.location
  ]
  dim_teams: [team_number, team, team_fullName, sort_order, color]
  team_players: [player, team_fullName, team, player_id]
  lat_long: [state, point_one, point_two, point_three]
  players_tweets: [date, player, count]
  teams_tweets: [date, team, count]
  team_tweets: [sort_order, date, color, team, team_fullName, noOfTweets]
  player_tweets: [player, team, date, player_id, team_fullName, noOfTweets]
  tm_rgn_raw_cnt: [date, team, state, count]
  tm_rgn_tm_dtls: [sort_order, noOfTweets, color, state, team, date, team_fullName]
  team_region_tweets: [point_one, point_two, point_three, state, team_fullName, team, color, sort_order, date, noOfTweets]
  tagcloud_tweets_raw: [date, word, count]
  tagcloud_tweets: [date, word, count]
  sales: [order_id, customer, product_id, region, qty, price, day]
  products: [product_id, category, brand]

D.ipl_tweets:
  source: '@TWEETS@'
  protocol: https
  format: json
D.dim_teams:
  source: '@DIM_TEAMS@'
  protocol: https
  format: csv
D.team_players:
  source: '@TEAM_PLAYERS@'
  protocol: https
  format: csv
D.lat_long:
  source: '@LAT_LONG@'
  protocol: https
  format: csv
D.sales:
  source: '@SALES@'
  protocol: https
  format: csv
D.products:
  source: '@PRODUCTS@'
  protocol: https
  format: csv

F:
  D.players_tweets: D.ipl_tweets |
    T.players_pipeline |
    T.players_count
  D.player_tweets: (D.players_tweets,
    D.team_players
  ) | T.join_player_team

  D.tweet_teams: D.ipl_tweets | T.teams_pipeline
  D.teams_tweets: D.tweet_teams | T.teams_count
  D.team_tweets: (D.teams_tweets,
    D.dim_teams
  ) | T.join_dim_teams

  D.tm_rgn_raw_cnt: D.ipl_tweets |
    T.teams_pipeline_region |
    T.teams_regions_count
  D.tm_rgn_tm_dtls: (D.tm_rgn_raw_cnt,
    D.dim_teams
  ) | T.join_dim_teams_two
  D.team_region_tweets: (D.tm_rgn_tm_dtls,
    D.lat_long
  ) | T.join_lat_long

  D.tagcloud_tweets_raw: D.ipl_tweets |
    T.word_date_extraction |
    T.words_count
  D.tagcloud_tweets: D.tagcloud_tweets_raw |
    T.topwords

  D.sales_clean: D.sales | T.revenue | T.valid_orders
  D.sales_enriched: (D.sales_clean, D.products) | T.join_products
  D.category_region: D.sales_enriched | T.by_category_region | T.rank_category_region
  D.top_customers: D.sales_enriched | T.by_customer | T.top_customers

D.players_tweets:
  endpoint: true
D.player_tweets:
  endpoint: true
D.team_tweets:
  endpoint: true
D.team_region_tweets:
  endpoint: true
D.tagcloud_tweets:
  endpoint: true
D.dim_teams:
  endpoint: true
D.tweet_teams:
  endpoint: true
D.sales_enriched:
  endpoint: true
D.category_region:
  endpoint: true
D.top_customers:
  endpoint: true

T:
  players_pipeline:
    parallel: [
      T.norm_ipldate,
      T.extract_players
    ]
  teams_pipeline:
    parallel: [
      T.norm_ipldate,
      T.extract_teams
    ]
  teams_pipeline_region:
    parallel: [
      T.norm_ipldate,
      T.extract_location,
      T.extract_teams
    ]
  word_date_extraction:
    parallel: [
      T.norm_ipldate,
      T.extract_words
    ]

  norm_ipldate:
    type: map
    operator: date
    transform: postedTime
    input_format: 'E MMM dd HH:mm:ss Z yyyy'
    output_format: yyyy-MM-dd
    output: date

  extract_players:
    type: map
    operator: extract
    transform: body
    dict: '@DICT_DIR@/players.txt'
    output: player

  extract_teams:
    type: map
    operator: extract
    transform: body
    dict: '@DICT_DIR@/teams.csv'
    output: team

  extract_location:
    type: map
    operator: extract_location
    transform: displayName
    match: city
    country: IND
    output: state

  extract_words:
    type: map
    operator: extract_words
    transform: body
    output: word

  players_count:
    type: groupby
    groupby: [date, player]

  teams_count:
    type: groupby
    groupby: [date, team]

  teams_regions_count:
    type: groupby
    groupby: [date, team, state]

  words_count:
    type: groupby
    groupby: [date, word]

  topwords:
    type: topn
    groupby: [date]
    orderby_column: [count DESC]
    limit: @TOPWORDS@

  join_player_team:
    type: join
    left: players_tweets by player
    right: team_players by player
    join_condition: left outer
    project:
      players_tweets_date: date
      players_tweets_player: player
      players_tweets_count: noOfTweets
      team_players_team: team
      team_players_team_fullName: team_fullName
      team_players_player_id: player_id

  join_dim_teams:
    type: join
    left: teams_tweets by team
    right: dim_teams by team_fullName
    join_condition: left outer
    project:
      teams_tweets_date: date
      teams_tweets_team: team_fullName
      teams_tweets_count: noOfTweets
      dim_teams_team: team
      dim_teams_sort_order: sort_order
      dim_teams_color: color

  join_dim_teams_two:
    type: join
    left: tm_rgn_raw_cnt by team
    right: dim_teams by team_fullName
    join_condition: left outer
    project:
      tm_rgn_raw_cnt_date: date
      tm_rgn_raw_cnt_team: team_fullName
      tm_rgn_raw_cnt_state: state
      tm_rgn_raw_cnt_count: noOfTweets
      dim_teams_team: team
      dim_teams_sort_order: sort_order
      dim_teams_color: color

  join_lat_long:
    type: join
    left: tm_rgn_tm_dtls by state
    right: lat_long by state
    join_condition: LEFT OUTER
    project:
      tm_rgn_tm_dtls_team_fullName: team_fullName
      tm_rgn_tm_dtls_state: state
      tm_rgn_tm_dtls_date: date
      tm_rgn_tm_dtls_noOfTweets: noOfTweets
      tm_rgn_tm_dtls_team: team
      tm_rgn_tm_dtls_sort_order: sort_order
      tm_rgn_tm_dtls_color: color
      lat_long_point_one: point_one
      lat_long_point_two: point_two
      lat_long_point_three: point_three

  revenue:
    type: map
    operator: expression
    expression: qty * price
    output: revenue

  valid_orders:
    type: filter_by
    filter_expression: 'revenue >= @MIN_REVENUE@'

  join_products:
    type: join
    left: sales_clean by product_id
    right: products by product_id
    join_condition: inner
    project:
      sales_clean_order_id: order_id
      sales_clean_customer: customer
      sales_clean_region: region
      sales_clean_qty: qty
      sales_clean_revenue: revenue
      sales_clean_day: day
      products_category: category
      products_brand: brand

  by_category_region:
    type: groupby
    groupby: [category, region]
    aggregates:
      - operator: sum
        apply_on: revenue
        out_field: revenue
      - operator: sum
        apply_on: qty
        out_field: units

  rank_category_region:
    type: orderby
    orderby: [revenue DESC]

  by_customer:
    type: groupby
    groupby: [region, customer]
    aggregates:
      - operator: sum
        apply_on: revenue
        out_field: revenue

  top_customers:
    type: topn
    groupby: [region]
    orderby_column: [revenue DESC]
    limit: @TOP_CUSTOMERS@
)";
  auto replace = [&](const std::string& key, const std::string& value) {
    for (size_t pos = text.find(key); pos != std::string::npos;
         pos = text.find(key, pos + value.size())) {
      text.replace(pos, key.size(), value);
    }
  };
  replace("@TWEETS@", tweets_url);
  replace("@DIM_TEAMS@", kDimTeamsUrl);
  replace("@TEAM_PLAYERS@", kTeamPlayersUrl);
  replace("@LAT_LONG@", kLatLongUrl);
  replace("@SALES@", kSalesUrl);
  replace("@PRODUCTS@", kProductsUrl);
  replace("@DICT_DIR@", dict_dir);
  replace("@TOPWORDS@", std::to_string(variant.topwords));
  replace("@MIN_REVENUE@", std::to_string(variant.min_revenue));
  replace("@TOP_CUSTOMERS@", std::to_string(variant.top_customers));
  return text;
}

}  // namespace e2ebench
